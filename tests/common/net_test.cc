// The TCP layer: the shared listener and dialer, and the u32
// length-prefixed framing's behavior on truncated frames, oversized
// lengths, partial reads/writes, clean EOF and slow peers.

#include "common/net.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
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
