#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "relational/database.h"

namespace xomatiq::rel {
namespace {

// Durability tests: the paper justifies the relational route partly by
// "the concurrency access and crash recovery features of an RDBMS"
// (§2.2); these tests pin down the recovery contract of our substitute.
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test and process: concurrent ctest processes must not share
    // it (under ASan every process gets the same fixture address).
    const auto* test = testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir() + "/xq_recovery_" +
           test->test_suite_name() + "." + test->name() + "." +
           std::to_string(getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Schema TwoCol() {
    return Schema({{"id", ValueType::kInt, true},
                   {"name", ValueType::kText, false}});
  }

  std::string dir_;
};

TEST_F(RecoveryTest, ReopenReplaysWal) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
    ASSERT_TRUE((*db)
                    ->CreateIndex({"t_id", "t", {"id"},
                                   IndexKind::kBTree, false})
                    .ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          (*db)->Insert("t", {Value::Int(i), Value::Text("n" +
                                                         std::to_string(i))})
              .ok());
    }
    ASSERT_TRUE((*db)->Delete("t", 5).ok());
    ASSERT_TRUE((*db)->Update("t", 6, {Value::Int(600), Value::Null()}).ok());
  }  // simulated crash: no checkpoint
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  EXPECT_GT((*db)->records_recovered(), 0u);
  auto table = (*db)->GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_live_rows(), 19u);
  EXPECT_FALSE((*table)->IsLive(5));
  EXPECT_EQ((**(*table)->Get(6))[0].AsInt(), 600);
  // Indexes are rebuilt during replay.
  const IndexEntry* idx = (*db)->FindIndexByName("t_id");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->btree->Lookup({Value::Int(600)}), std::vector<RowId>{6});
  EXPECT_TRUE(idx->btree->Lookup({Value::Int(5)}).empty());
}

TEST_F(RecoveryTest, CheckpointThenWalTail) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*db)->Insert("t", {Value::Int(i), Value::Null()}).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ((*db)->wal_bytes(), 0u);
    // Post-checkpoint tail.
    for (int i = 10; i < 15; ++i) {
      ASSERT_TRUE((*db)->Insert("t", {Value::Int(i), Value::Null()}).ok());
    }
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->records_recovered(), 5u);  // only the tail replays
  EXPECT_EQ((*(*db)->GetTable("t"))->num_live_rows(), 15u);
}

TEST_F(RecoveryTest, RowIdsStableAcrossCheckpointWithTombstones) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*db)->Insert("t", {Value::Int(i), Value::Null()}).ok());
    }
    ASSERT_TRUE((*db)->Delete("t", 2).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    // Delete another row after the checkpoint: replay must address the
    // same slot numbers the snapshot preserved.
    ASSERT_TRUE((*db)->Delete("t", 4).ok());
  }
  auto db = Database::Open(dir_);
  auto table = (*db)->GetTable("t");
  EXPECT_EQ((*table)->num_slots(), 5u);
  EXPECT_FALSE((*table)->IsLive(2));
  EXPECT_FALSE((*table)->IsLive(4));
  EXPECT_EQ((*table)->num_live_rows(), 3u);
}

TEST_F(RecoveryTest, TornWalTailRecoversPrefix) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*db)->Insert("t", {Value::Int(i), Value::Null()}).ok());
    }
  }
  // Chop bytes off the log tail (torn write).
  std::string wal_path = dir_ + "/wal.log";
  auto size = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, size - 7);
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  // Everything but the torn record survives.
  EXPECT_EQ((*(*db)->GetTable("t"))->num_live_rows(), 9u);
}

TEST_F(RecoveryTest, CheckpointSurvivesWithoutWal) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
    ASSERT_TRUE((*db)->Insert("t", {Value::Int(1), Value::Null()}).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  std::filesystem::remove(dir_ + "/wal.log");
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*(*db)->GetTable("t"))->num_live_rows(), 1u);
}

TEST_F(RecoveryTest, CorruptSnapshotIsRejected) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  std::string path = dir_ + "/snapshot.db";
  auto overwrite = [&path](std::streamoff at, std::ios::seekdir from,
                           char c) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(at, from);
    f.put(c);
  };
  // The retired v1 format ("XQSNAP1", no base LSN) is an unknown magic.
  // The magic follows its u32 length prefix.
  overwrite(4 + 6, std::ios::beg, '1');
  auto v1 = Database::Open(dir_);
  ASSERT_FALSE(v1.ok());
  EXPECT_EQ(v1.status().code(), common::StatusCode::kCorruption);
  EXPECT_NE(v1.status().message().find("bad snapshot magic"),
            std::string::npos)
      << v1.status().ToString();
  overwrite(4 + 6, std::ios::beg, '2');
  // Flip a byte in the snapshot body.
  overwrite(-3, std::ios::end, 'Z');
  auto db = Database::Open(dir_);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), common::StatusCode::kCorruption);
}

// Property: truncating the WAL at ANY byte offset yields a database that
// opens cleanly and contains a prefix of the committed operations (no
// partial rows, indexes consistent with the heap).
class WalTruncationFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalTruncationFuzzTest, AnyTruncationRecoversCleanPrefix) {
  std::string dir = testing::TempDir() + "/xq_walfuzz_" +
                    std::to_string(GetParam());
  std::filesystem::remove_all(dir);
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)
                    ->CreateTable("t", Schema({{"id", ValueType::kInt, true},
                                               {"name", ValueType::kText,
                                                false}}))
                    .ok());
    ASSERT_TRUE(
        (*db)->CreateIndex({"t_id", "t", {"id"}, IndexKind::kBTree, false})
            .ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE((*db)
                      ->Insert("t", {Value::Int(i),
                                     Value::Text("name" + std::to_string(i))})
                      .ok());
    }
    ASSERT_TRUE((*db)->Delete("t", 3).ok());
  }
  std::string wal_path = dir + "/wal.log";
  auto full_size = std::filesystem::file_size(wal_path);
  common::Rng rng(GetParam());
  // Truncate at a random offset (re-copying the original each round).
  std::string original;
  {
    std::ifstream in(wal_path, std::ios::binary);
    original.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  for (int round = 0; round < 12; ++round) {
    auto cut = rng.Uniform(full_size + 1);
    {
      std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
      out.write(original.data(), static_cast<std::streamsize>(cut));
    }
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << "cut=" << cut << ": "
                         << db.status().ToString();
    if (!(*db)->HasTable("t")) continue;  // cut before CREATE TABLE
    auto table = (*db)->GetTable("t");
    ASSERT_TRUE(table.ok());
    // Rows form a prefix: ids 0..k-1 (3 possibly deleted at the end).
    std::vector<int64_t> ids;
    (*table)->Scan([&](rel::RowId, const Tuple& t) {
      ids.push_back(t[0].AsInt());
      return true;
    });
    for (size_t i = 1; i < ids.size(); ++i) {
      // With the one delete, ids stay sorted and unique.
      ASSERT_LT(ids[i - 1], ids[i]);
    }
    // Index agrees with the heap.
    const IndexEntry* idx = (*db)->FindIndexByName("t_id");
    if (idx != nullptr) {
      ASSERT_EQ(idx->btree->num_entries(), ids.size());
      ASSERT_TRUE(idx->btree->CheckInvariants());
    }
    // The recovered database accepts new writes.
    ASSERT_TRUE(
        (*db)->Insert("t", {Value::Int(1000), Value::Null()}).ok());
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalTruncationFuzzTest,
                         ::testing::Values(21, 42, 63, 84));

TEST_F(RecoveryTest, InMemoryDatabaseHasNoWal) {
  auto db = Database::OpenInMemory();
  EXPECT_FALSE(db->durable());
  ASSERT_TRUE(db->CreateTable("t", TwoCol()).ok());
  EXPECT_TRUE(db->Checkpoint().ok());  // no-op
  EXPECT_EQ(db->wal_bytes(), 0u);
}

}  // namespace
}  // namespace xomatiq::rel
