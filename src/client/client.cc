#include "client/client.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/net.h"
#include "common/rng.h"
#include "common/trace.h"

namespace xomatiq::cli {

using common::Result;
using common::Status;
using common::StatusCode;

namespace {

// Process-unique 64-bit trace ids: a splitmix64 step over a seed mixing
// the clock with a per-process counter. No coordination with the server
// is needed — the id only has to be unique among the traces an operator
// might try to correlate.
uint64_t GenerateTraceId() {
  static std::atomic<uint64_t> counter{0};
  uint64_t x = static_cast<uint64_t>(
                   std::chrono::steady_clock::now().time_since_epoch().count())
               + 0x9e3779b97f4a7c15ULL *
                     (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x != 0 ? x : 1;  // 0 means "no id" on the wire
}

// Hello exchange on a fresh connection. A typed error response from the
// server (e.g. kUnsupported on a major mismatch) is surfaced verbatim.
Status Handshake(int fd) {
  XQ_RETURN_IF_ERROR(net::WriteFrame(fd, srv::EncodeHello(srv::Hello{})));
  XQ_ASSIGN_OR_RETURN(std::string frame,
                      net::ReadFrame(fd, srv::kDefaultMaxFrameBytes));
  if (srv::DecodeHello(frame).ok()) return Status::OK();
  // Not a hello: the server refused (typed error response, id 0).
  XQ_ASSIGN_OR_RETURN(srv::Response response, srv::DecodeResponse(frame));
  if (!response.ok()) return response.status();
  return Status::Corruption("unexpected handshake reply");
}

// TCP connect plus handshake; the caller owns the returned fd.
Result<int> OpenSession(const std::string& host, uint16_t port) {
  Result<int> fd = [&] {
    // No-op unless the caller installed a Trace on this thread; Execute's
    // own trace covers only the request it sends.
    common::TraceSpan span("client.connect");
    return net::Dial(host, port);
  }();
  if (!fd.ok()) return fd;
  if (Status status = Handshake(*fd); !status.ok()) {
    ::close(*fd);
    return status;
  }
  return fd;
}

// Transport-level failures worth a reconnect+resend: the connection is
// dead or suspect, but the server may well be fine.
bool IsTransportError(StatusCode code) {
  return code == StatusCode::kIoError || code == StatusCode::kCorruption ||
         code == StatusCode::kNotFound || code == StatusCode::kTimeout;
}

// The shared backoff schedule (common/backoff.h) drives both connect and
// execute retries.
using common::Backoff;

}  // namespace

Result<Client> Client::Connect(const std::string& host, uint16_t port) {
  XQ_ASSIGN_OR_RETURN(int fd, OpenSession(host, port));
  return Client(fd, host, port);
}

Result<Client> Client::ConnectWithRetry(const std::string& host,
                                        uint16_t port,
                                        const RetryPolicy& policy) {
  Backoff backoff(policy);
  Status last = Status::IoError("no connect attempts made");
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0 && !backoff.SleepBeforeRetry(attempt - 1)) break;
    auto client = Connect(host, port);
    if (client.ok()) return client;
    last = client.status();
    // A typed protocol rejection is deterministic; retrying only delays
    // the inevitable.
    if (!IsTransportError(last.code())) return last;
  }
  return last;
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      host_(std::move(other.host_)),
      port_(other.port_),
      next_id_(other.next_id_),
      last_trace_json_(std::move(other.last_trace_json_)),
      last_trace_id_(other.last_trace_id_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    host_ = std::move(other.host_);
    port_ = other.port_;
    next_id_ = other.next_id_;
    last_trace_json_ = std::move(other.last_trace_json_);
    last_trace_id_ = other.last_trace_id_;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::Reconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  XQ_ASSIGN_OR_RETURN(fd_, OpenSession(host_, port_));
  return Status::OK();
}

Result<srv::Response> Client::Execute(const common::QueryRequest& req) {
  if (fd_ < 0) return Status::IoError("client is closed");
  const std::string& text = req.text;
  common::QueryOptions opts = req.options;
  if (opts.trace && opts.trace_id == 0) opts.trace_id = GenerateTraceId();
  auto run = [&]() -> Result<srv::Response> {
    const srv::Request request{next_id_++, req.mode, text, opts};
    std::string frame_out;
    {
      common::TraceSpan span("client.encode");
      frame_out = srv::EncodeRequest(request);
    }
    {
      common::TraceSpan span("client.send");
      XQ_RETURN_IF_ERROR(net::WriteFrame(fd_, frame_out));
    }
    // One span for the whole round trip (the server's own spans fill the
    // gap), plus a decode span per reply frame.
    common::TraceSpan rtt("client.rtt");
    while (true) {
      XQ_ASSIGN_OR_RETURN(std::string frame,
                          net::ReadFrame(fd_, srv::kDefaultMaxFrameBytes));
      common::TraceSpan span("client.decode");
      XQ_ASSIGN_OR_RETURN(srv::Response response, srv::DecodeResponse(frame));
      // A session-level error (id 0, e.g. the server timing us out) or a
      // stale reply for an abandoned request is not ours to swallow.
      if (response.id == request.id) return response;
      if (response.id == 0) return response.status();
    }
  };
  if (!opts.trace) return run();
  // Traced request: record the client's half of the timeline on pid 2 and
  // keep it for LastTraceJson, even when the attempt fails.
  common::Trace trace;
  trace.set_trace_id(opts.trace_id);
  Result<srv::Response> result = [&] {
    common::TraceScope scope(&trace);
    return run();
  }();
  last_trace_json_ = trace.ToChromeJson(/*pid=*/2);
  last_trace_id_ = opts.trace_id;
  return result;
}

Result<srv::Response> Client::ExecuteWithRetry(const common::QueryRequest& req,
                                               const RetryPolicy& policy) {
  Backoff backoff(policy);
  Status last = Status::IoError("no execute attempts made");
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0 && !backoff.SleepBeforeRetry(attempt - 1)) break;
    if (fd_ < 0) {
      Status s = Reconnect();
      if (!s.ok()) {
        last = s;
        if (!IsTransportError(s.code())) return s;
        continue;
      }
    }
    auto response = Execute(req);
    if (response.ok()) {
      // Server-side OVERLOADED is explicit pushback: back off and resend
      // on the same (healthy) connection. Any other server error is the
      // query's own problem and returns immediately.
      if (response->code == StatusCode::kOverloaded) {
        last = response->status();
        continue;
      }
      return response;
    }
    last = response.status();
    if (!IsTransportError(last.code())) return last;
    // Dead or suspect connection: drop it so the next attempt reconnects.
    ::close(fd_);
    fd_ = -1;
  }
  return last;
}

}  // namespace xomatiq::cli
