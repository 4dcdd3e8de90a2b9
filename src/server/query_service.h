#ifndef XOMATIQ_SERVER_QUERY_SERVICE_H_
#define XOMATIQ_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/query_options.h"
#include "datahounds/warehouse.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/session.h"
#include "xomatiq/xomatiq.h"

namespace xomatiq::srv {

struct ServiceOptions {
  // Result cache of this service's database; null disables caching.
  // Entries are keyed and invalidated by snapshot epoch (see
  // ResultCache), so a cache must not be shared across databases.
  std::shared_ptr<ResultCache> cache;
  // Honor "#sleep <ms>" PING payloads. Test-only: lets a test pin a
  // worker for a deterministic interval to fill the admission queue.
  bool allow_sleep = false;
  // Server-side deadline applied to requests that don't carry their own
  // (0 = none). A request's explicit deadline always wins, even if longer:
  // the knob is a default, not a cap.
  uint32_t default_deadline_ms = 0;
  // Replica mode: SQL mutations (and ANALYZE) are rejected with a typed
  // kReadOnly status telling the client to retry against the primary.
  // Replicated writes bypass this service entirely (the applier writes
  // straight to the database), so the flag fully fences user writes.
  bool read_only = false;
  // Read-your-writes support: called as (min_lsn, budget_ms) when a
  // request carries a min_lsn the database has not reached; returns true
  // once the position is visible, false on timeout (the request is then
  // refused with kLagging so the client can bounce to the primary).
  // Unset = never wait; a stale read is refused immediately. Wired to
  // ReplicaApplier::WaitForLsn on replicas.
  std::function<bool(uint64_t, uint32_t)> wait_for_lsn;
  // Budget handed to wait_for_lsn. Short by design: a replica briefly
  // riding out replication lag is useful, a replica stalling reads is not.
  uint32_t min_lsn_wait_ms = 100;
};

// SQL keyword helpers shared by the service and Session: the first
// leading identifier of `text`, lowercased ("" when it opens with
// something else), and whether that keyword mutates.
std::string FirstSqlKeyword(std::string_view text);
bool IsSqlMutation(std::string_view keyword);

// Transport-independent request handler: one instance per server, shared
// by every connection. Per-request orchestration (query-log scope, trace,
// min_lsn gate, snapshot pin) lives in Session; this class owns what is
// genuinely shared — the engine stack, the result cache, the trace ring —
// plus the mode dispatch.
//
// Thread-safety: Dispatch may run on many worker threads at once. Reads
// run against pinned snapshots (no latch); writes serialize on the
// database write latch via the engine's WriteGuard; the cache has its own
// leaf mutex. No mutable per-request state is kept here.
class QueryService {
 public:
  QueryService(hounds::Warehouse* warehouse, ServiceOptions options = {});
  ~QueryService();

  // Opens a logical session. The server creates one per accepted wire
  // connection; its Handle() is the request entry point.
  std::shared_ptr<Session> StartSession();

  // Chrome trace_event JSON of the most recent traced request ("" when no
  // request asked for a trace yet). One slot, last-writer-wins: the
  // diagnosing operator traces one query at a time. Only explicitly
  // requested traces land here; sampled traces go to the ring below.
  std::string LastTraceJson() const;

  // Ring of the most recent request traces (requested + sampled), newest
  // first, as (trace_id, Chrome JSON) pairs. Feeds /tracez.
  std::vector<std::pair<uint64_t, std::string>> RecentTraces() const;

  // Chrome JSON of the most recent trace tagged `trace_id` ("" when it has
  // aged out or never existed). Lets a client stitch its half of the
  // timeline to the server's by the id it put on the wire.
  std::string TraceJsonFor(uint64_t trace_id) const;

  ResultCache* cache() { return options_.cache.get(); }
  xq::XomatiQ* xomatiq() { return &xomatiq_; }

 private:
  friend class Session;

  // The mode dispatch, with the effective (defaulted) options applied.
  // `read_epoch` is the snapshot epoch the owning Session pinned for this
  // request (nullopt for mutations and non-data modes).
  std::string Dispatch(const Request& request,
                       const common::QueryOptions& opts,
                       std::optional<uint64_t> read_epoch);
  std::string HandleSql(const Request& request,
                        const common::QueryOptions& opts,
                        std::optional<uint64_t> read_epoch);
  std::string HandleXq(const Request& request, bool as_xml,
                       const common::QueryOptions& opts,
                       std::optional<uint64_t> read_epoch);
  // Stores a finished request trace: the ring always, the operator's
  // last-trace slot only when the client explicitly asked.
  void RecordTrace(bool explicit_trace, uint64_t trace_id, std::string json);

  hounds::Warehouse* warehouse_;
  xq::XomatiQ xomatiq_;
  ServiceOptions options_;
  std::atomic<uint64_t> next_session_id_{1};
  mutable std::mutex trace_mu_;
  std::string last_trace_json_;
  // Newest-first ring of recent request traces, capped at kTraceRingCap.
  static constexpr size_t kTraceRingCap = 8;
  std::deque<std::pair<uint64_t, std::string>> recent_traces_;
};

}  // namespace xomatiq::srv

#endif  // XOMATIQ_SERVER_QUERY_SERVICE_H_
