#ifndef XOMATIQ_SERVER_HTTP_ADMIN_H_
#define XOMATIQ_SERVER_HTTP_ADMIN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "common/net.h"
#include "common/result.h"

namespace xomatiq::srv {

// Content callbacks the admin endpoint serves. Each returns a complete
// response body; the HTTP layer owns status lines, headers and framing.
// Handlers run on the admin thread concurrently with query execution, so
// they must only touch thread-safe state (metrics snapshots, the query
// log, the trace ring).
struct AdminHooks {
  // GET /metrics — Prometheus text exposition (text/plain).
  std::function<std::string()> metrics;
  // GET /healthz — liveness + readiness. first = healthy (HTTP 200 vs
  // 503), second = JSON body.
  std::function<std::pair<bool, std::string>()> healthz;
  // GET /statusz — uptime / sessions / in-flight / queue depth / cache
  // hit rate as JSON.
  std::function<std::string()> statusz;
  // GET /queryz — recent + slow query-log records as JSON.
  std::function<std::string()> queryz;
  // GET /tracez[?id=<16-hex>] — recent request traces as JSON; with an id,
  // just that trace's Chrome dump. Receives the raw query string ("" when
  // none).
  std::function<std::string(std::string_view query)> tracez;
};

struct HttpAdminOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port from port()
  // SO_RCVTIMEO for request reads; a stalled client is dropped.
  int read_timeout_ms = 2000;
};

// Minimal embedded HTTP/1.0 endpoint for operators and scrapers: GET-only,
// Connection: close, one request per connection, zero dependencies. Runs
// one listener thread that also serves requests inline — every handler is
// a quick in-memory render, and serialized handling bounds the endpoint's
// interference with query work on small machines.
class HttpAdminServer {
 public:
  explicit HttpAdminServer(AdminHooks hooks, HttpAdminOptions options = {});
  ~HttpAdminServer();

  HttpAdminServer(const HttpAdminServer&) = delete;
  HttpAdminServer& operator=(const HttpAdminServer&) = delete;

  // Binds, listens and spawns the serving thread.
  common::Status Start();

  // Stops serving; idempotent.
  void Shutdown();

  // Bound port (after Start()).
  uint16_t port() const { return listener_.port(); }

 private:
  void ServeLoop();
  void ServeOne(int fd);

  AdminHooks hooks_;
  HttpAdminOptions options_;
  net::Listener listener_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace xomatiq::srv

#endif  // XOMATIQ_SERVER_HTTP_ADMIN_H_
