#ifndef XOMATIQ_COMMON_NET_H_
#define XOMATIQ_COMMON_NET_H_

#include <sys/socket.h>

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/result.h"

namespace xomatiq::net {

// The one TCP layer of the repository: every server, dialer and frame in
// src/ — the query service, the HTTP admin endpoint, WAL shipping and
// both clients — goes through here, so the accept loop, the connection
// threads, the socket options, EINTR and EPIPE handling and the framing
// exist exactly once. IPv4 dotted-quad addresses only; a bad address is
// InvalidArgument, a socket failure IoError.

// A listening socket. Open binds it; Accept hands out connected fds,
// which the caller owns and closes. Shutdown may run on another thread
// while Accept is blocked in it, and makes that Accept return an error;
// Close (after the accepting thread has been joined) releases the socket.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // socket, SO_REUSEADDR, bind, listen; port 0 binds an ephemeral port,
  // read back with port().
  common::Status Open(const std::string& host, uint16_t port, int backlog);

  // The next connection, with TCP_NODELAY set and, when read_timeout_ms
  // > 0, SO_RCVTIMEO: a peer that stalls mid-frame for longer is timed
  // out (see ReadFrame). Errors once Shutdown ran.
  common::Result<int> Accept(int read_timeout_ms);

  void Shutdown();
  void Close();

  // The bound port; stays readable after Close.
  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

// A TCP server: one accept thread, and one thread per connection that
// runs `serve(fd)`. When serve returns, the connection's fd is closed and
// its thread is joined (by the next connection thread to finish, or by
// Shutdown), so a long-lived server with short-lived clients holds the
// stacks of its live connections only. serve must not close the fd.
class Server {
 public:
  Server() = default;
  ~Server() { Shutdown(SHUT_RDWR); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Opens the listener (see Listener::Open and Listener::Accept for the
  // arguments) and starts accepting.
  common::Status Start(const std::string& host, uint16_t port, int backlog,
                       int read_timeout_ms, std::function<void(int)> serve);

  // Stops accepting, calls ::shutdown(fd, how) on every live connection,
  // waits for every serve to return and closes the listener. SHUT_RD
  // lets a serve that is mid-request still write its answer; SHUT_RDWR
  // also fails its writes. Idempotent; not to be called concurrently.
  void Shutdown(int how);

  uint16_t port() const { return listener_.port(); }

  // Connections whose serve has not returned yet.
  size_t connections() const;

 private:
  void AcceptLoop(int read_timeout_ms);
  void Run(int fd);

  std::function<void(int)> serve_;
  Listener listener_;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  // live_ became empty
  // Live connections by fd. A connection is closed and erased under mu_,
  // so Shutdown never calls ::shutdown on a closed (maybe reused) fd.
  std::unordered_map<int, std::thread> live_;
  // The last connection thread that finished; joined by the next one to
  // finish or by Shutdown.
  std::thread finished_;
  std::thread accept_thread_;
};

// Connects to host:port and sets TCP_NODELAY. The caller owns the fd.
common::Result<int> Dial(const std::string& host, uint16_t port);

// Writes all of `data` to `fd`, looping over short writes and retrying
// EINTR. Sockets are written with send(MSG_NOSIGNAL) so a dead peer
// surfaces as an IoError carrying EPIPE instead of killing the process
// with SIGPIPE; non-socket fds (pipes in tests) transparently fall back
// to write(2).
common::Status WriteAll(int fd, std::string_view data);

// --- framing: u32 little-endian body length | body ---
// The query protocol (server/protocol.h) and XQRP (replication/
// repl_wire.h) both ride on it.

common::Status WriteFrame(int fd, std::string_view body);

// Reads one complete frame body. Status codes distinguish the outcomes a
// session loop must treat differently:
//   NotFound    clean EOF on a frame boundary (peer hung up)
//   Timeout     SO_RCVTIMEO expired while a frame was partially read
//               (the slow-client guard) -- never fired while idle between
//               frames, where the read simply keeps waiting
//   InvalidArgument  declared length exceeds `max_bytes`
//   Corruption  EOF mid-frame
//   IoError     any other socket error
common::Result<std::string> ReadFrame(int fd, size_t max_bytes);

}  // namespace xomatiq::net

#endif  // XOMATIQ_COMMON_NET_H_
