#include "server/session.h"

#include <optional>
#include <string>

#include "common/metrics.h"
#include "common/query_log.h"
#include "common/trace.h"
#include "relational/snapshot.h"
#include "server/query_service.h"

namespace xomatiq::srv {

using common::Status;

std::string Session::Handle(const Request& request) {
  static common::Counter* requests =
      common::MetricsRegistry::Global().GetCounter("server.requests");
  static common::Gauge* inflight =
      common::MetricsRegistry::Global().GetGauge("server.inflight");
  requests->Inc();
  inflight->Add(1);
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Outermost query-log scope: owns the record for this request; the
  // engine layers below annotate plan fingerprint / est-vs-actual rows.
  common::QueryLogScope qlog(request.text,
                             common::QueryModeName(request.mode));
  if (common::QueryLogRecord* rec = common::QueryLogScope::Current()) {
    rec->trace_id = request.options.trace_id;
  }
  common::QueryOptions opts = request.options;
  if (opts.deadline_ms == 0) {
    opts.deadline_ms = service_->options_.default_deadline_ms;
  }
  // Trace when the client asked, and opportunistically for a sampled
  // slice of ordinary requests so some slow-query-log entries carry a
  // trace without the operator having planned ahead.
  const bool sampled = common::QueryLog::Global().ShouldSampleTrace();
  std::string reply;
  if (!opts.trace && !sampled) {
    reply = Execute(request, opts);
  } else {
    // Traced request: install a per-request Trace for this worker thread,
    // keep the Chrome JSON for LastTraceJson / the trace ring, and mark
    // the response.
    common::Trace trace;
    trace.set_trace_id(opts.trace_id);
    {
      common::TraceScope scope(&trace);
      reply = Execute(request, opts);
    }
    std::string json = trace.ToChromeJson(/*pid=*/1);
    if (common::QueryLogRecord* rec = common::QueryLogScope::Current()) {
      rec->trace_json = json;  // dropped on append unless the query is slow
    }
    service_->RecordTrace(opts.trace, opts.trace_id, std::move(json));
    if (opts.trace) {
      // Reply layout: u64 id | u8 status | (u8 kind | u8 flags | ...).
      // Patch the flags byte of OK responses the same way ServeCached does.
      constexpr size_t kReplyFlags = 8 + kFlagsOffset;
      if (reply.size() > kReplyFlags && reply[8] == 0) {
        reply[kReplyFlags] = static_cast<char>(
            static_cast<uint8_t>(reply[kReplyFlags]) | kFlagTraced);
      }
    }
  }
  // Stamp error status on the record (the SQL engine already does this for
  // its own failures; XQ translation errors and bad modes land here).
  if (common::QueryLogRecord* rec = common::QueryLogScope::Current()) {
    if (reply.size() > 8 && reply[8] != 0) rec->ok = false;
  }
  inflight->Add(-1);
  return reply;
}

std::string Session::Execute(const Request& request,
                             const common::QueryOptions& opts) {
  hounds::Warehouse* warehouse = service_->warehouse_;
  const ServiceOptions& soptions = service_->options_;
  // Read-your-writes gate: a data read carrying a min_lsn token must not
  // observe state older than that position. The gate waits on
  // committed_lsn — the highest LSN whose write batch has PUBLISHED its
  // epoch — not applied_lsn: between apply and publish a record is in the
  // WAL but invisible to snapshots, and a snapshot pinned in that window
  // would break the client's read-your-writes promise.
  if (opts.min_lsn != 0 &&
      (request.mode == common::QueryMode::kSql ||
       request.mode == common::QueryMode::kXq ||
       request.mode == common::QueryMode::kXqXml)) {
    if (warehouse->db()->committed_lsn() < opts.min_lsn) {
      bool reached =
          soptions.wait_for_lsn != nullptr &&
          soptions.wait_for_lsn(opts.min_lsn, soptions.min_lsn_wait_ms);
      // The waiter is satisfied by applied_lsn; re-check the published
      // position (one batch may still be between apply and publish).
      if (reached && warehouse->db()->committed_lsn() < opts.min_lsn) {
        reached = false;
      }
      if (!reached) {
        static common::Counter* lagging =
            common::MetricsRegistry::Global().GetCounter(
                "server.lagging_rejected");
        lagging->Inc();
        return EncodeErrorResponse(
            request.id,
            Status::Lagging("replica at lsn " +
                            std::to_string(warehouse->db()->committed_lsn()) +
                            " behind requested min_lsn " +
                            std::to_string(opts.min_lsn)));
      }
    }
  }
  // Pin ONE snapshot for the whole request on read modes, strictly after
  // the gate above: every statement the request runs — and the result
  // cache key — sees the same committed epoch. SQL mutations/DDL must run
  // unpinned (a Snapshot holds the DDL latch shared; DDL takes it
  // exclusive on this very thread). Explain/Stats/Ping read no heap rows
  // through this path.
  rel::Snapshot snap;
  std::optional<uint64_t> read_epoch;
  const bool pin =
      request.mode == common::QueryMode::kXq ||
      request.mode == common::QueryMode::kXqXml ||
      (request.mode == common::QueryMode::kSql &&
       FirstSqlKeyword(request.text) == "select");
  if (pin) {
    snap = warehouse->db()->BeginSnapshot();
    read_epoch = snap.epoch();
  }
  return service_->Dispatch(request, opts, read_epoch);
}

}  // namespace xomatiq::srv
