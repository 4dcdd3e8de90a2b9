#include "server/server.h"

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string_view>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/net.h"
#include "common/query_log.h"
#include "common/string_util.h"

namespace xomatiq::srv {

using common::Status;

namespace {

struct ServerMetrics {
  common::Counter* connections;
  common::Counter* rejected;
  common::Gauge* active_sessions;

  static ServerMetrics& Get() {
    static ServerMetrics m = [] {
      auto& reg = common::MetricsRegistry::Global();
      return ServerMetrics{reg.GetCounter("server.connections"),
                           reg.GetCounter("server.rejected_overload"),
                           reg.GetGauge("server.active_sessions")};
    }();
    return m;
  }
};

}  // namespace

QueryServer::QueryServer(hounds::Warehouse* warehouse, ServerOptions options)
    : warehouse_(warehouse),
      service_(warehouse, options.service),
      options_(std::move(options)) {}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::Start() {
  pool_ = std::make_unique<BoundedThreadPool>(options_.workers,
                                              options_.max_queue);
  XQ_RETURN_IF_ERROR(server_.Start(options_.host, options_.port, 128,
                                   options_.read_timeout_ms,
                                   [this](int fd) { Serve(fd); }));
  start_unix_s_ = static_cast<int64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  start_steady_ns_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  if (options_.admin_port >= 0) {
    XQ_RETURN_IF_ERROR(StartAdmin());
  }
  return Status::OK();
}

uint16_t QueryServer::admin_port() const {
  return admin_ != nullptr ? admin_->port() : 0;
}

Status QueryServer::StartAdmin() {
  AdminHooks hooks;
  hooks.metrics = [] {
    return common::MetricsRegistry::Global().Snapshot().ToPrometheusText();
  };
  hooks.healthz = [this]() -> std::pair<bool, std::string> {
    rel::Database* db = warehouse_->db();
    bool serving = !stopping_.load(std::memory_order_acquire);
    // A replica that is disconnected / never caught up / stale answers 503
    // so load balancers stop routing reads at it; the primary has no
    // replica_ready hook and is unaffected.
    bool replica_ready =
        options_.replica_ready == nullptr || options_.replica_ready();
    const char* status = !serving ? "shutting_down"
                         : !replica_ready ? "replica_stale"
                                          : "ok";
    std::string body = common::StrFormat(
        "{\"status\":\"%s\",\"durable\":%s,\"records_recovered\":%zu,"
        "\"recovered_torn_tail\":%s,\"durable_lsn\":%llu,"
        "\"applied_lsn\":%llu,\"replica_ready\":%s}",
        status, db->durable() ? "true" : "false", db->records_recovered(),
        db->recovered_torn_tail() ? "true" : "false",
        static_cast<unsigned long long>(db->durable_lsn()),
        static_cast<unsigned long long>(db->applied_lsn()),
        replica_ready ? "true" : "false");
    return {serving && replica_ready, std::move(body)};
  };
  hooks.statusz = [this] {
    auto& reg = common::MetricsRegistry::Global();
    uint64_t now_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    uint64_t hits = reg.GetCounter("server.cache.hits")->Value();
    uint64_t misses = reg.GetCounter("server.cache.misses")->Value();
    uint64_t lookups = hits + misses;
    std::string out = common::StrFormat(
        "{\"uptime_s\":%.3f,\"start_unix_s\":%lld,\"port\":%u,"
        "\"active_sessions\":%zu,\"inflight_requests\":%lld,"
        "\"pool_queue_depth\":%zu,\"requests\":%llu,"
        "\"cache_hits\":%llu,\"cache_misses\":%llu,\"cache_hit_rate\":%.4f,"
        "\"slow_queries\":%zu,\"query_log_total\":%llu,"
        "\"durable_lsn\":%llu,\"applied_lsn\":%llu",
        static_cast<double>(now_ns - start_steady_ns_) / 1e9,
        static_cast<long long>(start_unix_s_), port(), server_.connections(),
        static_cast<long long>(reg.GetGauge("server.inflight")->Value()),
        pool_->queue_depth(),
        static_cast<unsigned long long>(
            reg.GetCounter("server.requests")->Value()),
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses),
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0.0,
        common::QueryLog::Global().Slow().size(),
        static_cast<unsigned long long>(common::QueryLog::Global().total()),
        static_cast<unsigned long long>(warehouse_->db()->durable_lsn()),
        static_cast<unsigned long long>(warehouse_->db()->applied_lsn()));
    if (options_.replication_statusz != nullptr) {
      out += ",\"replication\":" + options_.replication_statusz();
    }
    out += "}";
    return out;
  };
  hooks.queryz = [] {
    common::QueryLog& log = common::QueryLog::Global();
    std::string out = common::StrFormat(
        "{\"total\":%llu,\"slow_threshold_ms\":%.3f,\"recent\":[",
        static_cast<unsigned long long>(log.total()),
        static_cast<double>(log.slow_threshold_ns()) / 1e6);
    std::vector<common::QueryLogRecord> recent = log.Recent();
    for (size_t i = 0; i < recent.size(); ++i) {
      if (i > 0) out += ",";
      AppendQueryLogRecordJson(&out, recent[i]);
    }
    out += "],\"slow\":[";
    std::vector<common::QueryLogRecord> slow = log.Slow();
    for (size_t i = 0; i < slow.size(); ++i) {
      if (i > 0) out += ",";
      AppendQueryLogRecordJson(&out, slow[i]);
    }
    out += "]}";
    return out;
  };
  hooks.tracez = [this](std::string_view query) -> std::string {
    // ?id=<16-hex>: just that trace's Chrome dump (directly loadable in
    // chrome://tracing), so a client can fetch its request's server half.
    if (query.rfind("id=", 0) == 0) {
      uint64_t id = std::strtoull(std::string(query.substr(3)).c_str(),
                                  nullptr, 16);
      std::string json = service_.TraceJsonFor(id);
      return json.empty() ? std::string("{\"error\":\"no such trace\"}")
                          : json;
    }
    std::string out = "{\"traces\":[";
    auto traces = service_.RecentTraces();
    for (size_t i = 0; i < traces.size(); ++i) {
      if (i > 0) out += ",";
      out += common::StrFormat(
          "{\"trace_id\":\"%016llx\",\"trace\":",
          static_cast<unsigned long long>(traces[i].first));
      out += traces[i].second;
      out += "}";
    }
    out += "]}";
    return out;
  };
  HttpAdminOptions admin_options;
  admin_options.host = options_.host;
  admin_options.port = static_cast<uint16_t>(options_.admin_port);
  admin_ = std::make_unique<HttpAdminServer>(std::move(hooks), admin_options);
  return admin_->Start();
}

void QueryServer::Shutdown() {
  if (stopping_.exchange(true)) return;
  // Stop the admin endpoint first so its hooks never observe the server
  // mid-teardown.
  if (admin_ != nullptr) admin_->Shutdown();
  // Half-close: readers see EOF and return once their admitted requests
  // are answered, which the pool workers can still write.
  server_.Shutdown(SHUT_RD);
  if (pool_ != nullptr) pool_->Drain();
}

void QueryServer::Serve(int fd) {
  std::shared_ptr<Session> session = service_.StartSession();
  ServerMetrics::Get().connections->Inc();
  ServerMetrics::Get().active_sessions->Add(1);
  // Pool workers answer this connection's requests on its socket, so
  // every frame is written under write_mu, and the loop returns (and
  // net::Server closes the fd) only once in_flight is back to 0.
  std::mutex write_mu;
  std::condition_variable answered_cv;
  // Admitted requests not yet answered; a worker's answer takes it down
  // under write_mu.
  std::atomic<size_t> in_flight{0};
  auto send = [&](std::string_view frame) {
    std::lock_guard lock(write_mu);
    return net::WriteFrame(fd, frame);
  };
  bool greeted = false;
  while (true) {
    common::Result<std::string> frame =
        net::ReadFrame(fd, kDefaultMaxFrameBytes);
    if (frame.ok()) {
      // Fault point server.session.read: fail a successfully read frame
      // as if the socket read itself had failed.
      Status injected = common::FaultInjector::Global().Check(
          "server.session.read");
      if (!injected.ok()) frame = injected;
    }
    if (!frame.ok()) {
      // Timeout / oversized / corrupt: tell the peer why (best effort —
      // it may already be gone), then drop the connection.
      if (frame.status().code() != common::StatusCode::kNotFound) {
        send(EncodeErrorResponse(0, frame.status()));
      }
      break;
    }
    if (!greeted) {
      // The session must open with a hello of our major version.
      common::Result<Hello> hello = DecodeHello(*frame);
      Status refused = hello.status();
      if (hello.ok() && hello->major != kProtocolMajor) {
        refused = Status::Unsupported(
            "protocol major version " + std::to_string(hello->major) +
            " not supported (server " + std::to_string(kProtocolMajor) + "." +
            std::to_string(kProtocolMinor) + ")");
      }
      if (!refused.ok()) {
        send(EncodeErrorResponse(0, refused));
        break;
      }
      if (!send(EncodeHello(Hello{})).ok()) break;
      greeted = true;
      continue;
    }
    common::Result<Request> request = DecodeRequest(*frame);
    if (!request.ok()) {
      send(EncodeErrorResponse(0, request.status()));
      break;  // framing is suspect; don't trust subsequent bytes
    }
    const uint64_t id = request->id;
    ++in_flight;
    bool admitted = pool_->TryEnqueue([&, request = *std::move(request)] {
      std::string reply = session->Handle(request);
      // Fault point server.session.write: drop the response and sever the
      // connection, as a worker crashing between execution and reply
      // would; the client's retry layer must reconnect+resend.
      bool sever =
          common::FaultInjector::Global().ShouldFail("server.session.write");
      std::lock_guard lock(write_mu);
      if (sever) {
        ::shutdown(fd, SHUT_RDWR);
      } else {
        net::WriteFrame(fd, reply);
      }
      if (--in_flight == 0) answered_cv.notify_all();
    });
    if (!admitted) {
      --in_flight;
      ServerMetrics::Get().rejected->Inc();
      Status overloaded =
          Status::Overloaded("admission queue full; retry later");
      if (!send(EncodeErrorResponse(id, overloaded)).ok()) break;
    }
  }
  {
    std::unique_lock lock(write_mu);
    answered_cv.wait(lock, [&] { return in_flight == 0; });
  }
  ServerMetrics::Get().active_sessions->Add(-1);
}

}  // namespace xomatiq::srv
