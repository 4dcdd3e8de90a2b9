#ifndef XOMATIQ_SERVER_HTTP_ADMIN_H_
#define XOMATIQ_SERVER_HTTP_ADMIN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "common/net.h"
#include "common/result.h"

namespace xomatiq::srv {

// Content callbacks the admin endpoint serves. Each returns a complete
// response body; the HTTP layer owns status lines, headers and framing.
// Handlers run on the admin request's connection thread, concurrently
// with query execution and with each other, so they must only touch
// thread-safe state (metrics snapshots, the query log, the trace ring).
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
};

// Minimal embedded HTTP/1.0 endpoint for operators and scrapers: GET-only,
// Connection: close, one request per connection, zero dependencies. A
// net::Server reads, renders and answers each request on its
// connection's thread; every handler is a quick in-memory render.
class HttpAdminServer {
 public:
  explicit HttpAdminServer(AdminHooks hooks, HttpAdminOptions options = {});
  ~HttpAdminServer();

  HttpAdminServer(const HttpAdminServer&) = delete;
  HttpAdminServer& operator=(const HttpAdminServer&) = delete;

  // Binds, listens and starts accepting.
  common::Status Start();

  // Stops serving; idempotent.
  void Shutdown();

  // Bound port (after Start()).
  uint16_t port() const { return server_.port(); }

 private:
  void ServeOne(int fd);

  AdminHooks hooks_;
  HttpAdminOptions options_;
  net::Server server_;
};

}  // namespace xomatiq::srv

#endif  // XOMATIQ_SERVER_HTTP_ADMIN_H_
