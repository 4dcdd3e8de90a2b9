#ifndef XOMATIQ_REPLICATION_REPLICA_H_
#define XOMATIQ_REPLICATION_REPLICA_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "relational/database.h"
#include "replication/repl_wire.h"

namespace xomatiq::repl {

struct ReplicaApplierOptions {
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;

  // ready() turns false when no message (record or heartbeat) has arrived
  // within this window — the primary is gone or unreachable, so reads
  // here may be arbitrarily stale.
  uint32_t stale_after_ms = 3000;
};

// Point-in-time view of the applier, for /statusz and tests.
struct ReplicaStatus {
  bool connected = false;
  bool caught_up = false;  // reached the primary's durable LSN at least once
  uint64_t applied_lsn = 0;
  uint64_t primary_durable_lsn = 0;
  uint64_t lag_records = 0;  // primary_durable_lsn - applied_lsn
  uint64_t last_msg_unix_ms = 0;
  uint64_t records_applied = 0;
  uint64_t bytes_received = 0;
  uint64_t snapshots_installed = 0;
  uint64_t reconnects = 0;
  uint64_t corrupt_frames = 0;
};

// Replica-side stream consumer. Owns one background thread that connects
// to the primary's ReplicationServer, bootstraps from a snapshot when
// cold, and applies shipped WAL records under the database's exclusive
// latch — exactly the discipline a local writer would follow, so replica
// reads through the normal query path need no extra coordination.
//
// Resilience: any stream damage (socket error, CRC mismatch, LSN gap)
// drops the connection; the applier reconnects with jittered exponential
// backoff (common::RetryPolicy's default 10 ms to 1 s shape, retried
// forever and reset after every successful connection) and resumes from
// its last applied LSN, which the local WAL made durable — a replica
// restart recovers like a primary and carries on.
class ReplicaApplier {
 public:
  // `db` must outlive the applier and should be freshly opened (the
  // applier and query threads share its latch).
  ReplicaApplier(rel::Database* db, ReplicaApplierOptions options);
  ~ReplicaApplier();

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  common::Status Start();
  void Shutdown();

  uint64_t applied_lsn() const { return db_->applied_lsn(); }

  // Connected, has reached the primary's durable position at least once,
  // and heard from the primary within stale_after_ms. The /healthz
  // readiness bit for replicas.
  bool ready() const;

  ReplicaStatus status() const;

  // One JSON object for the /statusz "replication" section.
  std::string StatuszJson() const;

  // Blocks until the replica first reaches the primary's durable LSN;
  // Timeout on expiry. Orderly bring-up gate: call before opening the
  // warehouse / serving queries.
  common::Status WaitUntilCaughtUp(uint32_t timeout_ms);

  // Blocks until applied_lsn() >= lsn (the min_lsn read-your-writes wait);
  // false on timeout. Returns immediately when already satisfied.
  bool WaitForLsn(uint64_t lsn, uint32_t timeout_ms);

  // Test hook: while paused, received records are left in the socket and
  // nothing applies, freezing applied_lsn() so lag paths can be exercised
  // deterministically.
  void PauseApply(bool paused);

 private:
  void Run();
  // Serves one connection until error/shutdown. Returns true when the
  // session ended due to Shutdown (stop retrying).
  bool StreamOnce(int fd);
  common::Status HandleSnapshot(const ReplMsg& msg);
  common::Status HandleRecord(const ReplMsg& msg);
  void NoteCaughtUpLocked();

  rel::Database* db_;
  ReplicaApplierOptions options_;

  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool paused_ = false;
  bool connected_ = false;
  bool caught_up_once_ = false;
  uint64_t primary_durable_lsn_ = 0;
  uint64_t last_msg_unix_ms_ = 0;
  uint64_t records_applied_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t snapshots_installed_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t corrupt_frames_ = 0;
  int fd_ = -1;  // current stream socket, for Shutdown() to poke
};

}  // namespace xomatiq::repl

#endif  // XOMATIQ_REPLICATION_REPLICA_H_
