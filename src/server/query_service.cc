#include "server/query_service.h"

#include <chrono>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "common/metrics.h"
#include "common/query_log.h"
#include "common/query_request.h"
#include "common/trace.h"
#include "relational/serde.h"
#include "xml/writer.h"

namespace xomatiq::srv {

using common::Result;
using common::Status;

namespace {

// Prefixes an encoded response body with the request id.
std::string WithId(uint64_t id, std::string_view body) {
  rel::BinaryWriter w;
  w.PutU64(id);
  std::string out = w.TakeBuffer();
  out += body;
  return out;
}

}  // namespace

QueryService::QueryService(hounds::Warehouse* warehouse,
                           ServiceOptions options)
    : warehouse_(warehouse),
      xomatiq_(warehouse),
      options_(std::move(options)) {}

QueryService::~QueryService() = default;

std::shared_ptr<Session> QueryService::StartSession() {
  uint64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<Session>(new Session(this, id));
}

std::string QueryService::LastTraceJson() const {
  std::lock_guard lock(trace_mu_);
  return last_trace_json_;
}

std::vector<std::pair<uint64_t, std::string>> QueryService::RecentTraces()
    const {
  std::lock_guard lock(trace_mu_);
  return {recent_traces_.begin(), recent_traces_.end()};
}

std::string QueryService::TraceJsonFor(uint64_t trace_id) const {
  std::lock_guard lock(trace_mu_);
  for (const auto& [id, json] : recent_traces_) {
    if (id == trace_id) return json;
  }
  return "";
}

void QueryService::RecordTrace(bool explicit_trace, uint64_t trace_id,
                               std::string json) {
  std::lock_guard lock(trace_mu_);
  // Only explicit traces update the operator's last-trace slot.
  if (explicit_trace) last_trace_json_ = json;
  recent_traces_.emplace_front(trace_id, std::move(json));
  if (recent_traces_.size() > kTraceRingCap) recent_traces_.pop_back();
}

std::string QueryService::Dispatch(const Request& request,
                                   const common::QueryOptions& opts,
                                   std::optional<uint64_t> read_epoch) {
  static common::Histogram* latency =
      common::MetricsRegistry::Global().GetHistogram(
          "server.request_latency_us");
  common::TraceSpan span("server.request", latency);
  switch (request.mode) {
    case common::QueryMode::kSql:
      return HandleSql(request, opts, read_epoch);
    case common::QueryMode::kXq:
      return HandleXq(request, /*as_xml=*/false, opts, read_epoch);
    case common::QueryMode::kXqXml:
      return HandleXq(request, /*as_xml=*/true, opts, read_epoch);
    case common::QueryMode::kExplain: {
      Result<std::string> text = xomatiq_.Explain(request.text);
      if (!text.ok()) return EncodeErrorResponse(request.id, text.status());
      Response response;
      response.id = request.id;
      response.kind = PayloadKind::kText;
      response.text = *std::move(text);
      return EncodeResponse(response);
    }
    case common::QueryMode::kStats: {
      Response response;
      response.id = request.id;
      response.kind = PayloadKind::kText;
      response.text = common::MetricsRegistry::Global().Snapshot().ToJson();
      return EncodeResponse(response);
    }
    case common::QueryMode::kPing: {
      if (options_.allow_sleep && request.text.rfind("#sleep ", 0) == 0) {
        int ms = std::atoi(request.text.c_str() + 7);
        if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }
      Response response;
      response.id = request.id;
      response.kind = PayloadKind::kText;
      response.text = "pong";
      return EncodeResponse(response);
    }
  }
  return EncodeErrorResponse(
      request.id, Status::InvalidArgument("unhandled request mode"));
}

std::string QueryService::ThroughCache(
    const Request& request, bool cacheable,
    std::optional<uint64_t> read_epoch,
    const std::function<Result<Response>()>& run) {
  ResultCache* cache = options_.cache.get();
  // Cache entries are keyed on the pinned snapshot epoch, so a hit is
  // byte-exact for the cut this request reads (no epoch = no caching).
  cacheable = cacheable && cache != nullptr && read_epoch.has_value();
  std::string key;
  if (cacheable) {
    key = ResultCache::MakeKey(static_cast<uint8_t>(request.mode),
                               request.text, *read_epoch);
    if (std::optional<std::string> body = cache->Lookup(key)) {
      if (auto* rec = common::QueryLogScope::Current()) rec->cache_hit = true;
      // Mark the hit by patching the single flags byte; the rows
      // themselves are reused verbatim.
      if (body->size() > kFlagsOffset) (*body)[kFlagsOffset] |= kFlagCached;
      return WithId(request.id, *body);
    }
  }
  Result<Response> response = run();
  if (!response.ok()) return EncodeErrorResponse(request.id, response.status());
  // Commit LSN for writes, serving position for reads. A hit re-serves
  // the LSN its body was built with: older, but the rows are exactly those
  // of the epoch the hit pinned, which the key names.
  response->lsn = warehouse_->db()->durable_lsn();
  std::string body = EncodeResponseBody(*response);
  if (cacheable) cache->Insert(key, *read_epoch, body);
  return WithId(request.id, body);
}

std::string QueryService::HandleSql(const Request& request,
                                    const common::QueryOptions& opts,
                                    std::optional<uint64_t> read_epoch) {
  const std::string keyword = FirstSqlKeyword(request.text);
  if (options_.read_only && IsSqlWrite(request.text)) {
    static common::Counter* rejected =
        common::MetricsRegistry::Global().GetCounter(
            "server.read_only_rejected");
    rejected->Inc();
    return EncodeErrorResponse(
        request.id, Status::ReadOnly("replica is read-only; send " +
                                     keyword + " to the primary"));
  }
  auto run = [&]() -> Result<Response> {
    common::QueryRequest qreq = common::QueryRequest::Sql(request.text, opts);
    qreq.read_epoch = read_epoch;  // the Session owns the pinning Snapshot
    XQ_ASSIGN_OR_RETURN(sql::QueryResult result,
                        xomatiq_.engine()->Execute(qreq));
    Response response;
    if (!result.explain_text.empty()) {
      response.kind = PayloadKind::kText;
      response.text = std::move(result.explain_text);
    } else if (result.schema.size() > 0 || !result.rows.empty()) {
      response.kind = PayloadKind::kRows;
      for (const rel::Column& col : result.schema.columns()) {
        response.columns.push_back(col.name);
      }
      response.rows = std::move(result.rows);
    } else {
      response.kind = PayloadKind::kText;
      response.text = "OK (" + std::to_string(result.affected) + " rows)";
    }
    return response;
  };
  return ThroughCache(request, keyword == "select" && !opts.bypass_cache,
                      read_epoch, run);
}

std::string QueryService::HandleXq(const Request& request, bool as_xml,
                                   const common::QueryOptions& opts,
                                   std::optional<uint64_t> read_epoch) {
  auto run = [&]() -> Result<Response> {
    common::QueryRequest qreq;
    qreq.mode = as_xml ? common::QueryMode::kXqXml : common::QueryMode::kXq;
    qreq.text = request.text;
    qreq.options = opts;
    qreq.read_epoch = read_epoch;  // the Session owns the pinning Snapshot
    XQ_ASSIGN_OR_RETURN(xq::XqResult result, xomatiq_.Execute(qreq));
    Response response;
    if (as_xml) {
      response.kind = PayloadKind::kXml;
      response.text = xml::WriteXml(xomatiq_.ResultsAsXml(result));
    } else {
      response.kind = PayloadKind::kRows;
      response.columns = std::move(result.columns);
      response.rows = std::move(result.rows);
    }
    return response;
  };
  return ThroughCache(request, !opts.bypass_cache, read_epoch, run);
}

}  // namespace xomatiq::srv
