#ifndef XOMATIQ_SERVER_SERVER_H_
#define XOMATIQ_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

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
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
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
//   - one accept thread;
//   - one reader thread per connection, which decodes frames and enqueues
//     request tasks on the shared BoundedThreadPool;
//   - `workers` pool threads execute requests through the connection's
//     logical srv::Session and write responses back, serialized
//     per-connection by Conn::write_mu.
// When the admission queue is full the reader answers OVERLOADED inline —
// the server never queues without bound and never blocks the socket read
// loop on the engine.
//
// Shutdown() is graceful: stop accepting, half-close every session for
// reading (in-flight requests keep their sockets writable), drain the
// pool so every admitted request gets its response, then join.
class QueryServer {
 public:
  QueryServer(hounds::Warehouse* warehouse, ServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds, listens and spawns the accept thread.
  common::Status Start();

  // Graceful stop; idempotent.
  void Shutdown();

  // Bound port (after Start()).
  uint16_t port() const { return listener_.port(); }

  // Bound admin-endpoint port (0 when the admin server is disabled).
  uint16_t admin_port() const;

  QueryService* service() { return &service_; }

 private:
  // One wire connection: shared by the reader thread and any worker
  // running one of its requests; the last owner closes the socket, so a
  // response can still be written after the reader exited. `session` is
  // the logical srv::Session the requests execute through (snapshot
  // acquisition, query-log scope, trace propagation).
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    std::mutex write_mu;  // serializes response frames on this socket
    std::shared_ptr<Session> session;
    ~Conn();
  };

  void AcceptLoop();
  void SessionLoop(std::shared_ptr<Conn> conn);

  // Builds the AdminHooks closures over this server's state.
  common::Status StartAdmin();

  hounds::Warehouse* warehouse_;
  QueryService service_;
  ServerOptions options_;
  net::Listener listener_;
  std::atomic<bool> stopping_{false};
  std::unique_ptr<BoundedThreadPool> pool_;
  std::unique_ptr<HttpAdminServer> admin_;
  std::thread accept_thread_;
  int64_t start_unix_s_ = 0;      // wall-clock second Start() succeeded
  uint64_t start_steady_ns_ = 0;  // steady clock at Start(), for uptime

  std::mutex sessions_mu_;
  uint64_t next_session_id_ = 1;
  // Connections still reading; a connection removes itself when its
  // reader exits. Shutdown half-closes whatever is left.
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> sessions_;
  std::vector<std::thread> session_threads_;
};

}  // namespace xomatiq::srv

#endif  // XOMATIQ_SERVER_SERVER_H_
