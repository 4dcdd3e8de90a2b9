// The TCP layer: the shared listener, server and dialer, and the u32
// length-prefixed framing's behavior on truncated frames, oversized
// lengths, partial reads/writes, clean EOF and slow peers.

#include "common/net.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

namespace xomatiq::net {
namespace {

using common::StatusCode;

constexpr size_t kMaxFrame = 1u << 20;

int IntOption(int fd, int level, int name) {
  int value = 0;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, level, name, &value, &len), 0);
  return value;
}

TEST(NetTest, ListenerAcceptsShutsDownAndCloses) {
  Listener listener;
  ASSERT_TRUE(listener.Open("127.0.0.1", 0, 4).ok());
  const uint16_t port = listener.port();
  ASSERT_NE(port, 0);

  auto dialed = Dial("127.0.0.1", port);
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  auto accepted = listener.Accept(/*read_timeout_ms=*/100);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_NE(IntOption(*dialed, IPPROTO_TCP, TCP_NODELAY), 0);
  EXPECT_NE(IntOption(*accepted, IPPROTO_TCP, TCP_NODELAY), 0);
  timeval tv{};
  socklen_t len = sizeof(tv);
  ASSERT_EQ(::getsockopt(*accepted, SOL_SOCKET, SO_RCVTIMEO, &tv, &len), 0);
  EXPECT_EQ(tv.tv_sec * 1000 + tv.tv_usec / 1000, 100);
  ::close(*dialed);
  ::close(*accepted);

  // Shutdown releases an Accept parked on another thread.
  common::Status parked = common::Status::OK();
  std::thread acceptor([&] { parked = listener.Accept(0).status(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener.Shutdown();
  acceptor.join();
  EXPECT_FALSE(parked.ok());

  listener.Close();
  EXPECT_EQ(listener.port(), port);
  auto refused = Dial("127.0.0.1", port);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIoError);
}

// This process's virtual size in kB, from /proc/self/status.
size_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

// The stack size, in kB, of a thread started with default attributes.
size_t DefaultStackKb() {
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  size_t bytes = 0;
  pthread_attr_getstacksize(&attr, &bytes);
  pthread_attr_destroy(&attr);
  return bytes / 1024;
}

void WaitForNoConnections(const Server& server) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(NetTest, ServerReapsFinishedConnections) {
  Server server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, 16, 0, [](int) {}).ok());
  auto cycle = [&server] {
    auto fd = Dial("127.0.0.1", server.port());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    char byte;
    EXPECT_EQ(::recv(*fd, &byte, 1, 0), 0);  // serve returned: closed
    ::close(*fd);
  };
  // Warm up: the first connections map the accept thread's malloc arena
  // and the first cached stacks.
  for (int i = 0; i < 8; ++i) cycle();
  WaitForNoConnections(server);
  const size_t before_kb = VmSizeKb();
  for (int i = 0; i < 200; ++i) cycle();
  WaitForNoConnections(server);
  EXPECT_EQ(server.connections(), 0u);
  const size_t after_kb = VmSizeKb();
  EXPECT_LT(after_kb, before_kb + 50 * DefaultStackKb())
      << "VmSize " << before_kb << " -> " << after_kb << " kB";
  server.Shutdown(SHUT_RDWR);

  // A half-close releases a connection idle between frames, and Shutdown
  // waits for its serve to return.
  Server idle;
  std::atomic<bool> reading{false};
  common::Status read = common::Status::OK();
  ASSERT_TRUE(idle.Start("127.0.0.1", 0, 4, 0, [&](int fd) {
                    reading.store(true);
                    read = ReadFrame(fd, kMaxFrame).status();
                  }).ok());
  auto client = Dial("127.0.0.1", idle.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  while (!reading.load()) std::this_thread::yield();
  EXPECT_EQ(idle.connections(), 1u);
  idle.Shutdown(SHUT_RD);
  EXPECT_EQ(read.code(), StatusCode::kNotFound);
  EXPECT_EQ(idle.connections(), 0u);
  ::close(*client);
}

TEST(NetTest, BadAddressIsInvalidArgument) {
  Listener listener;
  EXPECT_EQ(listener.Open("not-an-address", 0, 4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(listener.port(), 0);
  EXPECT_EQ(Dial("256.0.0.1", 7).status().code(),
            StatusCode::kInvalidArgument);
}

// --- framing over a socketpair ---

class FramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  void CloseWriter() {
    ::close(fds_[1]);
    fds_[1] = -1;
  }
  int reader() const { return fds_[0]; }
  int writer() const { return fds_[1]; }

  int fds_[2] = {-1, -1};
};

TEST_F(FramingTest, RoundTrip) {
  ASSERT_TRUE(WriteFrame(writer(), "payload").ok());
  ASSERT_TRUE(WriteFrame(writer(), "").ok());
  auto first = ReadFrame(reader(), kMaxFrame);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, "payload");
  auto second = ReadFrame(reader(), kMaxFrame);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "");
}

TEST_F(FramingTest, CleanEofIsNotFound) {
  CloseWriter();
  auto frame = ReadFrame(reader(), kMaxFrame);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kNotFound);
}

TEST_F(FramingTest, EofMidHeaderIsCorruption) {
  ASSERT_EQ(::send(writer(), "\x08\x00", 2, 0), 2);
  CloseWriter();
  auto frame = ReadFrame(reader(), kMaxFrame);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST_F(FramingTest, EofMidBodyIsCorruption) {
  uint32_t len = 100;
  ASSERT_EQ(::send(writer(), &len, 4, 0), 4);
  ASSERT_EQ(::send(writer(), "partial", 7, 0), 7);
  CloseWriter();
  auto frame = ReadFrame(reader(), kMaxFrame);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST_F(FramingTest, OversizedLengthIsInvalidArgument) {
  uint32_t len = 1u << 30;
  ASSERT_EQ(::send(writer(), &len, 4, 0), 4);
  auto frame = ReadFrame(reader(), /*max_bytes=*/1024);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FramingTest, PartialWritesReassemble) {
  std::string body(1000, 'q');
  std::thread writer_thread([this, &body] {
    std::string framed;
    uint32_t len = static_cast<uint32_t>(body.size());
    framed.append(reinterpret_cast<char*>(&len), 4);
    framed += body;
    for (char c : framed) {
      ASSERT_EQ(::send(writer(), &c, 1, 0), 1);
    }
  });
  auto frame = ReadFrame(reader(), kMaxFrame);
  writer_thread.join();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(*frame, body);
}

TEST_F(FramingTest, SlowPeerMidFrameTimesOut) {
  timeval tv{0, 50 * 1000};  // 50ms
  ASSERT_EQ(::setsockopt(reader(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)),
            0);
  uint32_t len = 64;
  ASSERT_EQ(::send(writer(), &len, 4, 0), 4);
  ASSERT_EQ(::send(writer(), "abc", 3, 0), 3);
  // ... and then the peer stalls without closing.
  auto frame = ReadFrame(reader(), kMaxFrame);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kTimeout);
}

}  // namespace
}  // namespace xomatiq::net
