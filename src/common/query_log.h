#ifndef XOMATIQ_COMMON_QUERY_LOG_H_
#define XOMATIQ_COMMON_QUERY_LOG_H_

#include <cstdint>
#include <atomic>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xomatiq::common {

// One completed query, as remembered by the in-process query log.
// Execution layers fill what they know: the service layer owns text /
// latency / cache-hit, the SQL engine annotates plan fingerprint, planner
// mode and est-vs-actual rows via QueryLogScope::Current().
struct QueryLogRecord {
  uint64_t id = 0;         // monotonic sequence number, assigned on append
  int64_t wall_ms = 0;     // unix epoch ms at query start
  uint64_t trace_id = 0;   // wire-propagated correlation id (0 = none)
  std::string text;        // query text (truncated to kMaxTextBytes)
  std::string mode;        // "sql" | "xquery" | ...
  std::string planner;     // "rule" | "cost" | "" when no plan was built
  uint32_t plan_fp = 0;    // CRC32 of the plan rendering (0 = none)
  int64_t est_rows = -1;   // planner estimate for the root (-1 = unknown)
  int64_t actual_rows = -1;  // rows actually produced (-1 = unknown)
  uint64_t start_ns = 0;   // steady-clock ns at scope open (latency base)
  uint64_t latency_ns = 0;
  bool ok = true;
  bool cache_hit = false;
  bool slow = false;       // latency >= slow threshold at append time
  std::string error;       // error message when !ok
  std::string explain;     // EXPLAIN ANALYZE rendering (slow queries only)
  std::string trace_json;  // sampled Chrome trace (slow + sampled only)
};

// Process-wide ring of recently completed queries plus a separate ring of
// slow ones (so slow entries survive floods of fast queries). Appends take
// one short mutex hold and copy no strings (records are moved in); reads
// snapshot under the same mutex. Cheap enough to stay enabled in
// production; set_enabled(false) turns Append and scope arming into no-ops
// for overhead A/B measurements.
class QueryLog {
 public:
  static constexpr size_t kRecentCapacity = 256;
  static constexpr size_t kSlowCapacity = 64;
  static constexpr size_t kMaxTextBytes = 4096;
  static constexpr uint64_t kDefaultSlowThresholdNs = 50'000'000;  // 50 ms
  static constexpr uint64_t kTraceSampleEvery = 64;

  static QueryLog& Global();

  QueryLog();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_slow_threshold_ns(uint64_t ns) {
    slow_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }

  // Moves `rec` into the ring(s); assigns rec.id and the slow flag. No-op
  // when disabled.
  void Append(QueryLogRecord rec);

  // Newest-first snapshots. max = 0 means "all retained".
  std::vector<QueryLogRecord> Recent(size_t max = 0) const;
  std::vector<QueryLogRecord> Slow(size_t max = 0) const;

  // Total records ever appended (wrap-around-proof).
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

  // True every kTraceSampleEvery-th call — drives opportunistic tracing so
  // some slow queries carry a trace without tracing every request.
  bool ShouldSampleTrace();

  void Clear();

 private:
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> slow_threshold_ns_{kDefaultSlowThresholdNs};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> sample_tick_{0};

  mutable std::mutex mu_;
  std::vector<QueryLogRecord> recent_;  // ring, recent_head_ = next slot
  std::vector<QueryLogRecord> slow_;
  size_t recent_head_ = 0;
  size_t slow_head_ = 0;
};

// Appends `rec` to `*out` as one JSON object (shared by /queryz and the
// SLOW QUERIES statement).
void AppendQueryLogRecordJson(std::string* out, const QueryLogRecord& rec);

// RAII owner of one QueryLogRecord for the query executing on this thread.
//
// The outermost scope owns the record and appends it to QueryLog::Global()
// on destruction; scopes nested inside it (e.g. SqlEngine::Execute under
// Session::Handle) are no-op observers, so the same record is shared
// down the stack via Current(). When the log is disabled, no scope arms
// and Current() stays null — annotation sites must tolerate that.
class QueryLogScope {
 public:
  QueryLogScope(std::string_view text, std::string_view mode);
  ~QueryLogScope();

  QueryLogScope(const QueryLogScope&) = delete;
  QueryLogScope& operator=(const QueryLogScope&) = delete;

  // The record of the innermost armed scope on this thread (null when
  // none). Mutation is single-threaded: only the query's own thread
  // annotates between open and close.
  static QueryLogRecord* Current();

  // True when this scope owns the record (i.e. it is outermost and the
  // log was enabled at open).
  bool armed() const { return owner_; }

  // Elapsed ns since the scope opened (0 when not armed).
  uint64_t ElapsedNs() const;

 private:
  bool owner_ = false;
  QueryLogRecord rec_;
};

}  // namespace xomatiq::common

#endif  // XOMATIQ_COMMON_QUERY_LOG_H_
