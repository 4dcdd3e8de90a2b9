#include "server/http_admin.h"

#include <errno.h>
#include <sys/socket.h>

#include <cstdio>

#include "common/net.h"

namespace xomatiq::srv {

using common::Status;

namespace {

constexpr size_t kMaxRequestBytes = 4096;
// SO_RCVTIMEO for request reads; a stalled client is dropped.
constexpr int kReadTimeoutMs = 2000;

// Sends one complete HTTP/1.0 response; best effort (the scraper may
// already be gone).
void WriteHttp(int fd, int code, const char* reason, const char* content_type,
               std::string_view body) {
  char header[256];
  int n = std::snprintf(header, sizeof header,
                        "HTTP/1.0 %d %s\r\n"
                        "Content-Type: %s\r\n"
                        "Content-Length: %zu\r\n"
                        "Connection: close\r\n\r\n",
                        code, reason, content_type, body.size());
  std::string out(header, static_cast<size_t>(n));
  out += body;
  (void)net::WriteAll(fd, out);
}

void WriteError(int fd, int code, const char* reason) {
  std::string body = std::string(reason) + "\n";
  WriteHttp(fd, code, reason, "text/plain; charset=utf-8", body);
}

}  // namespace

HttpAdminServer::HttpAdminServer(AdminHooks hooks, HttpAdminOptions options)
    : hooks_(std::move(hooks)), options_(std::move(options)) {}

HttpAdminServer::~HttpAdminServer() { Shutdown(); }

Status HttpAdminServer::Start() {
  return server_.Start(options_.host, options_.port, 16, kReadTimeoutMs,
                       [this](int fd) { ServeOne(fd); });
}

void HttpAdminServer::Shutdown() { server_.Shutdown(SHUT_RDWR); }

void HttpAdminServer::ServeOne(int fd) {
  // Read until the end of the request head (or caps / timeout). Bodies are
  // never read: GET-only.
  std::string head;
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.size() < kMaxRequestBytes) {
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (head.empty()) return;  // closed without a request
      break;
    }
    head.append(buf, static_cast<size_t>(n));
  }
  // Request line: METHOD SP TARGET SP VERSION.
  size_t eol = head.find("\r\n");
  if (eol == std::string::npos) eol = head.find('\n');
  if (eol == std::string::npos) {
    WriteError(fd, 400, "Bad Request");
    return;
  }
  std::string_view line(head.data(), eol);
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                             : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    WriteError(fd, 400, "Bad Request");
    return;
  }
  std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    WriteError(fd, 405, "Method Not Allowed");
    return;
  }
  std::string_view path = target;
  std::string_view query;
  if (size_t qpos = target.find('?'); qpos != std::string_view::npos) {
    path = target.substr(0, qpos);
    query = target.substr(qpos + 1);
  }
  if (path == "/metrics" && hooks_.metrics) {
    WriteHttp(fd, 200, "OK", "text/plain; version=0.0.4; charset=utf-8",
              hooks_.metrics());
  } else if (path == "/healthz" && hooks_.healthz) {
    auto [healthy, body] = hooks_.healthz();
    if (healthy) {
      WriteHttp(fd, 200, "OK", "application/json", body);
    } else {
      WriteHttp(fd, 503, "Service Unavailable", "application/json", body);
    }
  } else if (path == "/statusz" && hooks_.statusz) {
    WriteHttp(fd, 200, "OK", "application/json", hooks_.statusz());
  } else if (path == "/queryz" && hooks_.queryz) {
    WriteHttp(fd, 200, "OK", "application/json", hooks_.queryz());
  } else if (path == "/tracez" && hooks_.tracez) {
    WriteHttp(fd, 200, "OK", "application/json", hooks_.tracez(query));
  } else if (path == "/") {
    WriteHttp(fd, 200, "OK", "text/plain; charset=utf-8",
              "xomatiq admin endpoints:\n"
              "  /metrics  Prometheus text exposition\n"
              "  /healthz  liveness + recovery readiness\n"
              "  /statusz  uptime, sessions, in-flight, queue, cache\n"
              "  /queryz   recent + slow query log\n"
              "  /tracez   recent request traces (?id=<16-hex>)\n");
  } else {
    WriteError(fd, 404, "Not Found");
  }
}

}  // namespace xomatiq::srv
