#ifndef XOMATIQ_CLIENT_CLIENT_H_
#define XOMATIQ_CLIENT_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/backoff.h"
#include "common/query_options.h"
#include "common/query_request.h"
#include "common/result.h"
#include "server/protocol.h"

namespace xomatiq::cli {

// Resilience knobs for ConnectWithRetry / ExecuteWithRetry; shared with
// the replica applier's reconnect loop (see common/backoff.h for the
// schedule semantics).
using RetryPolicy = common::RetryPolicy;

// Blocking client for the xomatiq_server wire protocol: one TCP
// connection, one outstanding request at a time. Transport failures
// (connect refused, connection dropped, oversized reply) surface as the
// error of the returned Result; a server-side query failure surfaces as
// a *successful* Result whose Response carries the error status — the
// caller can distinguish "the server is gone" from "the query was bad".
//
// Connect() performs the protocol hello exchange (protocol.h): the client
// offers its version and feature bits, the server acks with the
// negotiated intersection (features()), or rejects a major-version
// mismatch with a typed kUnsupported status. Per-request QueryOptions are
// only put on the wire when the server acknowledged kFeatureQueryOptions.
//
// ExecuteWithRetry retries *transport* failures (reconnect + resend) and
// OVERLOADED pushback. Retried requests are at-least-once: a response
// dropped after execution re-runs the query, so use it for reads and
// idempotent operations, or accept duplicate effects.
//
// Not thread-safe; use one Client per thread.
class Client {
 public:
  static common::Result<Client> Connect(const std::string& host,
                                        uint16_t port);
  // Connect with backoff: retries refused/failed connections (and the
  // handshake's transport errors) under `policy`. A typed handshake
  // rejection (kUnsupported) is not retried — the server will not change
  // its mind.
  static common::Result<Client> ConnectWithRetry(const std::string& host,
                                                 uint16_t port,
                                                 const RetryPolicy& policy = {});

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Primary entry point: one request, fully described. req.read_epoch is
  // an engine-side field and never goes on the wire — snapshot scoping is
  // the server Session's job.
  common::Result<srv::Response> Execute(const common::QueryRequest& req);

  // Execute with deadline-capped retries (see class comment for the
  // at-least-once caveat). Retries: transport errors (reconnect first) and
  // kOverloaded responses. Any other server-side error returns immediately.
  common::Result<srv::Response> ExecuteWithRetry(
      const common::QueryRequest& req, const RetryPolicy& policy = {});

  // Mode + text with default options. QueryMode mirrors srv::RequestMode
  // value-for-value, so the cast is exact.
  common::Result<srv::Response> Execute(srv::RequestMode mode,
                                        std::string_view text) {
    common::QueryRequest req;
    req.mode = static_cast<common::QueryMode>(mode);
    req.text = std::string(text);
    return Execute(req);
  }

  // Shorthands.
  common::Result<srv::Response> Sql(std::string_view text) {
    return Execute(common::QueryRequest::Sql(std::string(text)));
  }
  common::Result<srv::Response> Xq(std::string_view text) {
    return Execute(common::QueryRequest::Xq(std::string(text)));
  }

  int fd() const { return fd_; }
  // Feature bits acknowledged by the server's hello.
  uint32_t features() const { return features_; }

  // Chrome trace_event JSON of the client's side of the most recent traced
  // request (opts.trace set): connect/encode/send/rtt/decode spans on
  // pid 2, tagged with the trace id that went on the wire. Merge with the
  // server's half (GET /tracez?id=<last_trace_id> on the admin endpoint)
  // via common::MergeChromeTraceJson for one cross-process timeline.
  std::string LastTraceJson() const { return last_trace_json_; }
  // Trace id of that request (0 = none traced yet, or the server did not
  // ack kFeatureTraceContext). Client-generated unless the caller supplied
  // opts.trace_id.
  uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  Client(int fd, std::string host, uint16_t port, uint32_t features)
      : fd_(fd), host_(std::move(host)), port_(port), features_(features) {}

  // Tears down the socket and redoes Connect (including the handshake)
  // against the remembered endpoint.
  common::Status Reconnect();

  int fd_ = -1;
  std::string host_;
  uint16_t port_ = 0;
  uint32_t features_ = 0;
  uint64_t next_id_ = 1;
  std::string last_trace_json_;
  uint64_t last_trace_id_ = 0;
};

}  // namespace xomatiq::cli

#endif  // XOMATIQ_CLIENT_CLIENT_H_
