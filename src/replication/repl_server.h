#ifndef XOMATIQ_REPLICATION_REPL_SERVER_H_
#define XOMATIQ_REPLICATION_REPL_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>

#include "common/net.h"
#include "common/result.h"
#include "relational/database.h"
#include "replication/repl_wire.h"

namespace xomatiq::repl {

struct ReplicationServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read back via port()

  // Idle-stream heartbeat cadence (also bounds how stale a healthy
  // replica's freshness clock can get).
  uint32_t heartbeat_ms = 200;
};

// Primary-side WAL shipper. Registers a WalSink on the database, buffers
// recent records in a bounded in-memory ring (4096 records, 32 MiB), and
// serves any number of replicas: each connection gets a snapshot if
// needed (cold start, or resume point older than the ring), then a
// continuous tail of records interleaved with heartbeats.
//
// Threads: a net::Server runs one thread per connected replica. Session
// threads only ever *read* database state under the shared latch (for
// snapshots); they never write, so replication cannot deadlock with the
// query path. Shutdown closes every replica's socket both ways and waits
// for its thread.
class ReplicationServer {
 public:
  // `db` must outlive the server. Start() attaches the WAL sink (and
  // detaches it again when it fails to bind); Shutdown() (or the
  // destructor) detaches it.
  explicit ReplicationServer(rel::Database* db,
                             ReplicationServerOptions options = {});
  ~ReplicationServer();

  ReplicationServer(const ReplicationServer&) = delete;
  ReplicationServer& operator=(const ReplicationServer&) = delete;

  common::Status Start();
  void Shutdown();

  uint16_t port() const { return server_.port(); }

  struct Stats {
    size_t replicas_connected = 0;
    uint64_t records_shipped = 0;
    uint64_t bytes_shipped = 0;
    uint64_t snapshots_shipped = 0;
    uint64_t durable_lsn = 0;
    size_t ring_records = 0;
    size_t ring_bytes = 0;
  };
  Stats stats() const;

  // One JSON object for the /statusz "replication" section.
  std::string StatuszJson() const;

 private:
  void OnRecord(uint64_t lsn, std::string_view payload);
  void SessionLoop(int fd);
  // Sends a snapshot taken at the current durable LSN; returns the base
  // LSN to resume streaming from, or an error when the socket died.
  common::Result<uint64_t> SendSnapshot(int fd);

  rel::Database* db_;
  ReplicationServerOptions options_;

  std::atomic<bool> stopping_{false};

  // Ring of (lsn, record) pairs, newest at the back. Guarded by ring_mu_;
  // ring_cv_ wakes tailing sessions when a record lands or on shutdown.
  mutable std::mutex ring_mu_;
  std::condition_variable ring_cv_;
  std::deque<std::pair<uint64_t, std::string>> ring_;
  size_t ring_bytes_ = 0;

  std::atomic<uint64_t> records_shipped_{0};
  std::atomic<uint64_t> bytes_shipped_{0};
  std::atomic<uint64_t> snapshots_shipped_{0};

  net::Server server_;  // last: its threads use every member above
};

}  // namespace xomatiq::repl

#endif  // XOMATIQ_REPLICATION_REPL_SERVER_H_
