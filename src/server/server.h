#ifndef XOMATIQ_SERVER_SERVER_H_
#define XOMATIQ_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/net.h"
#include "common/result.h"
#include "datahounds/warehouse.h"
#include "server/http_admin.h"
#include "server/query_service.h"
#include "server/thread_pool.h"

namespace xomatiq::srv {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port from port()
  size_t workers = 4;
  size_t max_queue = 64;  // admission queue bound (see BoundedThreadPool)
  // SO_RCVTIMEO on accepted sockets: a client that stalls mid-frame for
  // longer than this is timed out and disconnected. 0 disables the guard.
  int read_timeout_ms = 5000;
  // Embedded HTTP admin endpoint (/metrics /healthz /statusz /queryz
  // /tracez): -1 disables it, 0 binds an ephemeral port (read it from
  // admin_port()), >0 binds that port on `host`.
  int admin_port = -1;
  ServiceOptions service;
  // Replication wiring, set by the embedder (server_main / tests) so this
  // library never links the replication one:
  //  - replication_statusz returns the JSON object shown as /statusz's
  //    "replication" section (primary shipper or replica applier stats);
  //  - replica_ready gates /healthz on a replica: false (HTTP 503) while
  //    the applier is disconnected, never caught up, or stale.
  std::function<std::string()> replication_statusz;
  std::function<bool()> replica_ready;
};

// Multi-threaded TCP front end for one Database/Warehouse/XomatiQ stack.
//
// Threading model (see DESIGN.md "Service layer"):
//   - a net::Server runs one reader thread per connection, which decodes
//     frames and enqueues request tasks on the shared BoundedThreadPool,
//     and returns (so the connection is closed and its thread joined)
//     only once every request it admitted has been answered;
//   - `workers` pool threads execute requests through the connection's
//     logical srv::Session and write responses back, serialized
//     per-connection by the reader's write mutex.
// When the admission queue is full the reader answers OVERLOADED inline —
// the server never queues without bound and never blocks the socket read
// loop on the engine.
//
// Shutdown() is graceful: stop accepting, half-close every connection for
// reading (admitted requests keep their sockets writable), wait for every
// reader to see its requests answered and return, then drain the pool.
class QueryServer {
 public:
  QueryServer(hounds::Warehouse* warehouse, ServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Starts the pool, binds, listens and starts accepting.
  common::Status Start();

  // Graceful stop; idempotent.
  void Shutdown();

  // Bound port (after Start()).
  uint16_t port() const { return server_.port(); }

  // Bound admin-endpoint port (0 when the admin server is disabled).
  uint16_t admin_port() const;

  QueryService* service() { return &service_; }

 private:
  // One connection's reader loop: hello, then request after request.
  void Serve(int fd);

  // Builds the AdminHooks closures over this server's state.
  common::Status StartAdmin();

  hounds::Warehouse* warehouse_;
  QueryService service_;
  ServerOptions options_;
  std::unique_ptr<BoundedThreadPool> pool_;
  net::Server server_;
  std::atomic<bool> stopping_{false};
  std::unique_ptr<HttpAdminServer> admin_;
  int64_t start_unix_s_ = 0;      // wall-clock second Start() succeeded
  uint64_t start_steady_ns_ = 0;  // steady clock at Start(), for uptime
};

}  // namespace xomatiq::srv

#endif  // XOMATIQ_SERVER_SERVER_H_
