#include "common/net.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace xomatiq::net {

using common::Result;
using common::Status;

namespace {

Status Errno(const char* call) {
  return Status::IoError(std::string(call) + ": " + std::strerror(errno));
}

Result<sockaddr_in> Ipv4Address(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad address: " + host);
  }
  return addr;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Listener::~Listener() { Close(); }

Status Listener::Open(const std::string& host, uint16_t port, int backlog) {
  XQ_ASSIGN_OR_RETURN(sockaddr_in addr, Ipv4Address(host, port));
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Errno("socket");
  auto fail = [this](const char* call) {
    Status status = Errno(call);
    Close();
    return status;
  };
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail("bind");
  }
  if (::listen(fd_, backlog) < 0) return fail("listen");
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

Result<int> Listener::Accept(int read_timeout_ms) {
  while (true) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return Errno("accept");  // shut down (or unrecoverable)
    }
    SetNoDelay(fd);
    if (read_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = read_timeout_ms / 1000;
      tv.tv_usec = (read_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    return fd;
  }
}

void Listener::Shutdown() {
  // Unblocks accept(); the fd itself is closed by Close, after the
  // accepting thread is gone.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Server::Start(const std::string& host, uint16_t port, int backlog,
                     int read_timeout_ms, std::function<void(int)> serve) {
  XQ_RETURN_IF_ERROR(listener_.Open(host, port, backlog));
  serve_ = std::move(serve);
  accept_thread_ = std::thread([this, read_timeout_ms] {
    AcceptLoop(read_timeout_ms);
  });
  return Status::OK();
}

void Server::AcceptLoop(int read_timeout_ms) {
  while (true) {
    Result<int> fd = listener_.Accept(read_timeout_ms);
    if (!fd.ok()) return;  // shut down (or unrecoverable)
    // Under mu_, so the thread cannot finish before it is registered.
    std::lock_guard lock(mu_);
    live_.emplace(*fd, std::thread([this, fd = *fd] { Run(fd); }));
  }
}

void Server::Run(int fd) {
  serve_(fd);
  std::thread previous;
  {
    std::lock_guard lock(mu_);
    ::close(fd);
    auto self = live_.find(fd);
    previous = std::exchange(finished_, std::move(self->second));
    live_.erase(self);
    if (live_.empty()) idle_cv_.notify_all();
  }
  if (previous.joinable()) previous.join();
}

void Server::Shutdown(int how) {
  // Once the accept thread is gone no connection can be added.
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::thread last;
  {
    std::unique_lock lock(mu_);
    for (const auto& [fd, thread] : live_) ::shutdown(fd, how);
    idle_cv_.wait(lock, [this] { return live_.empty(); });
    last = std::move(finished_);
  }
  // Joining the last thread to finish joins every earlier one: each
  // finished thread joined its predecessor before returning.
  if (last.joinable()) last.join();
  listener_.Close();
}

size_t Server::connections() const {
  std::lock_guard lock(mu_);
  return live_.size();
}

Result<int> Dial(const std::string& host, uint16_t port) {
  XQ_ASSIGN_OR_RETURN(sockaddr_in addr, Ipv4Address(host, port));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status =
        Status::IoError("connect " + host + ":" + std::to_string(port) +
                        ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  SetNoDelay(fd);
  return fd;
}

Status WriteAll(int fd, std::string_view data) {
  size_t done = 0;
  bool is_socket = true;
  while (done < data.size()) {
    ssize_t n;
    if (is_socket) {
      n = ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        // Pipe or regular file (tests drive the framing over pipes):
        // write(2) from here on. EPIPE on a pipe raises SIGPIPE, which
        // every long-running binary in this repo leaves at SIG_IGN or
        // handles; sockets — the production path — never signal.
        is_socket = false;
        continue;
      }
    } else {
      n = ::write(fd, data.data() + done, data.size() - done);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string(is_socket ? "send: " : "write: ") +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

// --- framing ----------------------------------------------------------

namespace {

// recv() into [buf, buf+len); returns bytes read, 0 on EOF, -1 on error.
// `consumed_any` selects the timeout semantics documented on ReadFrame:
// EAGAIN with nothing consumed keeps waiting (idle connection), EAGAIN
// mid-frame is the slow-client violation.
Result<size_t> ReadSome(int fd, char* buf, size_t len, bool consumed_any) {
  while (true) {
    ssize_t n = ::recv(fd, buf, len, 0);
    if (n > 0) return static_cast<size_t>(n);
    if (n == 0) return size_t{0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (consumed_any) {
        return Status::Timeout("read timed out mid-frame");
      }
      continue;  // idle between frames: keep waiting
    }
    return Status::IoError(std::string("recv: ") + std::strerror(errno));
  }
}

Status ReadExact(int fd, char* buf, size_t len, bool consumed_any) {
  size_t done = 0;
  while (done < len) {
    XQ_ASSIGN_OR_RETURN(size_t n,
                        ReadSome(fd, buf + done, len - done, consumed_any));
    if (n == 0) {
      return consumed_any ? Status::Corruption("eof mid-frame")
                          : Status::NotFound("connection closed");
    }
    done += n;
    consumed_any = true;
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, std::string_view body) {
  char header[4];
  uint32_t len = static_cast<uint32_t>(body.size());
  std::memcpy(header, &len, 4);
  std::string buf(header, 4);
  buf.append(body);
  return WriteAll(fd, buf);
}

Result<std::string> ReadFrame(int fd, size_t max_bytes) {
  char header[4];
  // The first byte of the header may wait forever (idle session); once any
  // byte arrives the peer owes us the rest of the frame within the socket's
  // receive timeout.
  XQ_RETURN_IF_ERROR(ReadExact(fd, header, 1, /*consumed_any=*/false));
  XQ_RETURN_IF_ERROR(ReadExact(fd, header + 1, 3, /*consumed_any=*/true));
  uint32_t len;
  std::memcpy(&len, header, 4);
  if (len > max_bytes) {
    return Status::InvalidArgument("frame of " + std::to_string(len) +
                                   " bytes exceeds limit of " +
                                   std::to_string(max_bytes));
  }
  std::string body(len, '\0');
  if (len > 0) {
    XQ_RETURN_IF_ERROR(ReadExact(fd, body.data(), len, /*consumed_any=*/true));
  }
  return body;
}

}  // namespace xomatiq::net
