#include "relational/wal.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/fault_injector.h"

namespace xomatiq::rel {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test and process: concurrent ctest processes must not share
    // it (under ASan every process gets the same fixture address).
    const auto* test = testing::UnitTest::GetInstance()->current_test_info();
    path_ = testing::TempDir() + "/wal_test_" +
            test->test_suite_name() + "." + test->name() + "." +
            std::to_string(getpid()) + ".log";
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

TEST_F(WalTest, AppendAndReplay) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("one").ok());
    ASSERT_TRUE((*wal)->Append("two").ok());
    ASSERT_TRUE((*wal)->Append("").ok());
  }
  std::vector<std::string> seen;
  auto count = WriteAheadLog::Replay(path_, [&](std::string_view payload) {
    seen.emplace_back(payload);
    return common::Status::OK();
  });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
  EXPECT_EQ(seen, (std::vector<std::string>{"one", "two", ""}));
}

TEST_F(WalTest, MissingFileIsEmptyLog) {
  auto count = WriteAheadLog::Replay(path_, [](std::string_view) {
    return common::Status::OK();
  });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST_F(WalTest, TornTailIsIgnored) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE((*wal)->Append("intact").ok());
    ASSERT_TRUE((*wal)->Append("will be torn").ok());
  }
  // Truncate mid-record to simulate a crash during write.
  auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 5);
  bool truncated = false;
  std::vector<std::string> seen;
  auto count = WriteAheadLog::Replay(
      path_,
      [&](std::string_view payload) {
        seen.emplace_back(payload);
        return common::Status::OK();
      },
      &truncated);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(seen, std::vector<std::string>{"intact"});
}

TEST_F(WalTest, CorruptPayloadStopsReplay) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE((*wal)->Append("first").ok());
    ASSERT_TRUE((*wal)->Append("second").ok());
  }
  // Flip a byte inside the second record's payload.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-2, std::ios::end);
    f.put('X');
  }
  bool truncated = false;
  size_t replayed = 0;
  auto count = WriteAheadLog::Replay(
      path_,
      [&](std::string_view) {
        ++replayed;
        return common::Status::OK();
      },
      &truncated);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(replayed, 1u);
  EXPECT_TRUE(truncated);
}

TEST_F(WalTest, ResetTruncates) {
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE((*wal)->Append("before checkpoint").ok());
  ASSERT_TRUE((*wal)->Reset().ok());
  ASSERT_TRUE((*wal)->Append("after").ok());
  std::vector<std::string> seen;
  auto count = WriteAheadLog::Replay(path_, [&](std::string_view payload) {
    seen.emplace_back(payload);
    return common::Status::OK();
  });
  EXPECT_EQ(seen, std::vector<std::string>{"after"});
}

TEST_F(WalTest, ReplayCallbackErrorPropagates) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE((*wal)->Append("x").ok());
  }
  auto count = WriteAheadLog::Replay(path_, [](std::string_view) {
    return common::Status::Corruption("boom");
  });
  EXPECT_FALSE(count.ok());
}

TEST_F(WalTest, GarbageLengthDoesNotDriveAllocation) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE((*wal)->Append("good").ok());
  }
  // Append a torn header whose length field decodes to ~3.7 GiB; replay
  // must treat it as a torn tail instead of attempting the allocation.
  {
    std::ofstream f(path_, std::ios::binary | std::ios::app);
    uint32_t huge = 0xdddddddd;
    f.write(reinterpret_cast<const char*>(&huge), 4);
    f.write("\0\0\0\0", 4);
  }
  bool truncated = false;
  size_t replayed = 0;
  auto count = WriteAheadLog::Replay(
      path_,
      [&](std::string_view) {
        ++replayed;
        return common::Status::OK();
      },
      &truncated);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(replayed, 1u);
  EXPECT_TRUE(truncated);
}

TEST_F(WalTest, ChecksumCatchesFlippedBitReplayKeepsPrefix) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE((*wal)->Append("aaaa").ok());
    ASSERT_TRUE((*wal)->Append("bbbb").ok());
    ASSERT_TRUE((*wal)->Append("cccc").ok());
  }
  // Flip one bit in the MIDDLE record's payload: the frame is intact
  // length-wise, only the CRC can catch this.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8 + 4 + 8 + 1);  // record0 frame, record1 header, payload[1]
    f.put('B');
  }
  bool truncated = false;
  std::vector<std::string> seen;
  auto count = WriteAheadLog::Replay(
      path_,
      [&](std::string_view p) {
        seen.emplace_back(p);
        return common::Status::OK();
      },
      &truncated);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(seen, std::vector<std::string>{"aaaa"});
  EXPECT_TRUE(truncated);
}

TEST_F(WalTest, FaultInjectedTornAppendLeavesRecoverableLog) {
  common::FaultInjector::Global().Reset();
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE((*wal)->Append("committed").ok());
    common::FaultInjector::Global().Arm("wal.append.torn",
                                        common::FaultConfig{});
    auto s = (*wal)->Append("torn away in the crash");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), common::StatusCode::kIoError);
    common::FaultInjector::Global().Reset();
  }
  // The torn frame is on disk; replay discards it.
  EXPECT_GT(std::filesystem::file_size(path_), size_t{8 + 9});
  bool truncated = false;
  std::vector<std::string> seen;
  auto count = WriteAheadLog::Replay(
      path_,
      [&](std::string_view p) {
        seen.emplace_back(p);
        return common::Status::OK();
      },
      &truncated);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(seen, std::vector<std::string>{"committed"});
  EXPECT_TRUE(truncated);
}

TEST_F(WalTest, FaultInjectedFlushFailureSurfaces) {
  common::FaultInjector::Global().Reset();
  auto wal = WriteAheadLog::Open(path_);
  common::FaultConfig config;
  config.policy = common::FaultPolicy::kNth;
  config.n = 2;
  common::FaultInjector::Global().Arm("wal.append.flush", config);
  EXPECT_TRUE((*wal)->Append("one").ok());
  EXPECT_FALSE((*wal)->Append("two").ok());
  // One-shot fault: the log keeps working afterwards.
  EXPECT_TRUE((*wal)->Append("three").ok());
  common::FaultInjector::Global().Reset();
}

TEST_F(WalTest, FsyncEachAppendOptionRoundTrips) {
  WalOptions options;
  options.fsync_each_append = true;
  {
    auto wal = WriteAheadLog::Open(path_, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("durable").ok());
  }
  std::vector<std::string> seen;
  auto count = WriteAheadLog::Replay(path_, [&](std::string_view p) {
    seen.emplace_back(p);
    return common::Status::OK();
  });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(seen, std::vector<std::string>{"durable"});
}

TEST_F(WalTest, ChecksumDisabledWritesZeroCrc) {
  WalOptions options;
  options.checksum = false;
  {
    auto wal = WriteAheadLog::Open(path_, options);
    ASSERT_TRUE((*wal)->Append("bench only").ok());
  }
  // The CRC field is zero on disk (which is why such logs aren't
  // replayable — Replay sees a checksum mismatch).
  std::ifstream f(path_, std::ios::binary);
  char header[8];
  f.read(header, 8);
  uint32_t crc;
  std::memcpy(&crc, header + 4, 4);
  EXPECT_EQ(crc, 0u);
  bool truncated = false;
  size_t replayed = 0;
  auto count = WriteAheadLog::Replay(
      path_,
      [&](std::string_view) {
        ++replayed;
        return common::Status::OK();
      },
      &truncated);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(replayed, 0u);
  EXPECT_TRUE(truncated);
}

TEST_F(WalTest, BinaryPayloadSafe) {
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE((*wal)->Append(payload).ok());
  }
  std::string seen;
  auto count = WriteAheadLog::Replay(path_, [&](std::string_view p) {
    seen = std::string(p);
    return common::Status::OK();
  });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(seen, payload);
}

}  // namespace
}  // namespace xomatiq::rel
