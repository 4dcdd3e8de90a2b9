#ifndef XOMATIQ_COMMON_QUERY_OPTIONS_H_
#define XOMATIQ_COMMON_QUERY_OPTIONS_H_

#include <chrono>
#include <cstdint>

namespace xomatiq::common {

// Absolute per-query deadline on the steady clock. Default-constructed
// (or After(0)) means "no deadline". Facade entry points (SqlEngine,
// XomatiQ) convert a relative QueryOptions::deadline_ms into one Deadline
// once, so a multi-statement query shares a single budget instead of
// restarting the clock per statement.
class Deadline {
 public:
  Deadline() = default;

  static Deadline After(uint32_t ms) {
    Deadline d;
    if (ms > 0) {
      d.at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
      d.set_ = true;
    }
    return d;
  }

  bool set() const { return set_; }
  bool expired() const {
    return set_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  std::chrono::steady_clock::time_point at_{};
  bool set_ = false;
};

// Per-query execution options, plumbed from the wire protocol down to the
// engine. Collapses what used to be growing positional/bool parameters on
// XomatiQ::Execute / SqlEngine entry points into one struct; new knobs
// land here without another signature change.
struct QueryOptions {
  // Cancel the query with a kTimeout status once this many milliseconds
  // have elapsed (0 = no deadline). Checked cooperatively at batch
  // boundaries, so cancellation latency is one batch, not one row.
  uint32_t deadline_ms = 0;
  // Record a per-query span tree (server: retrievable as Chrome JSON via
  // QueryService::LastTraceJson for the diagnosing operator).
  bool trace = false;
  // Skip the server result cache for this query: neither probe nor
  // install. Reads that must observe the latest warehouse state use this.
  bool bypass_cache = false;
  // Client-generated cross-process correlation id (0 = none). Every wire
  // request carries it; the server tags its request trace and query-log
  // record with it so client- and server-side views of one request can be
  // stitched together.
  uint64_t trace_id = 0;
  // Read-your-writes consistency token (0 = none). Every wire request
  // carries it; a read replica whose applied LSN is below this
  // waits briefly for replication to catch up and answers kLagging if it
  // does not — the client then retries against the primary. Meaningless
  // on a primary, which is by definition current.
  uint64_t min_lsn = 0;

  bool operator==(const QueryOptions&) const = default;
};

}  // namespace xomatiq::common

#endif  // XOMATIQ_COMMON_QUERY_OPTIONS_H_
