// Crash-recovery matrix: truncate the WAL at every record boundary and at
// torn mid-record cuts, reopen, and verify the recovered database equals
// an in-memory oracle that applied exactly the surviving prefix of the
// workload — committed operations present, uncommitted absent, indexes
// consistent, and the database writable again. Set
// XOMATIQ_CRASH_MATRIX_DENSE=1 to cut at every single byte offset.

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "relational/database.h"

namespace xomatiq::rel {
namespace {

using common::FaultConfig;
using common::FaultInjector;
using common::FaultPolicy;
using common::Status;
using common::StatusCode;

// One logged operation (exactly one WAL record; asserted at runtime).
using Op = std::function<Status(Database*)>;

Schema TwoCol() {
  return Schema({{"id", ValueType::kInt, true},
                 {"name", ValueType::kText, false}});
}

// A workload mixing DDL, inserts of varying record sizes, deletes and
// updates across two tables — every record boundary is a distinct
// recovery state.
std::vector<Op> Workload() {
  std::vector<Op> ops;
  ops.push_back([](Database* db) { return db->CreateTable("t", TwoCol()); });
  ops.push_back([](Database* db) {
    return db->CreateIndex({"t_id", "t", {"id"}, IndexKind::kBTree, false});
  });
  for (int i = 0; i < 10; ++i) {
    ops.push_back([i](Database* db) {
      return db
          ->Insert("t", {Value::Int(i),
                         Value::Text(std::string(
                             1 + (i * 7) % 23, static_cast<char>('a' + i)))})
          .status();
    });
  }
  ops.push_back([](Database* db) { return db->Delete("t", 3); });
  ops.push_back([](Database* db) {
    return db->Update("t", 5, {Value::Int(500), Value::Null()});
  });
  ops.push_back([](Database* db) {
    return db->CreateTable(
        "u", Schema({{"k", ValueType::kInt, false},
                     {"v", ValueType::kText, false}}));
  });
  for (int i = 0; i < 5; ++i) {
    ops.push_back([i](Database* db) {
      return db->Insert("u", {Value::Int(i * 11), Value::Text("v")}).status();
    });
  }
  ops.push_back([](Database* db) { return db->Delete("t", 7); });
  ops.push_back([](Database* db) {
    return db->Update("u", 2, {Value::Int(-1), Value::Text("updated")});
  });
  return ops;
}

// Canonical dump: every table, every live row, heap order. Two databases
// with equal dumps hold the same logical state.
std::string Dump(Database* db) {
  std::string out;
  for (const std::string& name : db->TableNames()) {
    out += "table " + name + "\n";
    auto table = db->GetTable(name);
    if (!table.ok()) return "GetTable failed: " + table.status().ToString();
    (*table)->Scan([&](RowId row, const Tuple& t) {
      out += std::to_string(row);
      for (const Value& v : t) out += "|" + v.ToString();
      out += "\n";
      return true;
    });
  }
  return out;
}

// State after applying the first `count` ops, via an in-memory oracle.
std::string OracleDump(const std::vector<Op>& ops, size_t count) {
  auto oracle = Database::OpenInMemory();
  for (size_t i = 0; i < count; ++i) {
    Status s = ops[i](oracle.get());
    if (!s.ok()) return "oracle op failed: " + s.ToString();
  }
  return Dump(oracle.get());
}

void CheckIndexConsistent(Database* db) {
  const IndexEntry* idx = db->FindIndexByName("t_id");
  if (idx == nullptr) return;  // cut before the CREATE INDEX record
  auto table = db->GetTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(idx->btree->num_entries(), (*table)->num_live_rows());
  ASSERT_TRUE(idx->btree->CheckInvariants());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFilePrefix(const std::string& path, const std::string& bytes,
                     size_t count) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(count));
}

// Walks the WAL framing [u32 len][u32 crc][payload] and returns the byte
// offset of each record's END (so boundaries[k] = end of record k).
std::vector<size_t> RecordBoundaries(const std::string& wal) {
  std::vector<size_t> ends;
  size_t pos = 0;
  while (pos + 8 <= wal.size()) {
    uint32_t len;
    std::memcpy(&len, wal.data() + pos, 4);
    if (pos + 8 + len > wal.size()) break;
    pos += 8 + len;
    ends.push_back(pos);
  }
  return ends;
}

class CrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    // Unique per test and process: concurrent ctest processes must not share
    // it (under ASan every process gets the same fixture address).
    const auto* test = testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir() + "/xq_crash_matrix_" +
           test->test_suite_name() + "." + test->name() + "." +
           std::to_string(getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string WalPath() const { return dir_ + "/wal.log"; }

  // Runs the workload on a durable database (no checkpoint = everything
  // lives in the WAL), returns the full WAL image.
  std::string RunWorkload(const std::vector<Op>& ops) {
    auto db = Database::Open(dir_);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) return "";
    for (size_t i = 0; i < ops.size(); ++i) {
      Status s = ops[i](db->get());
      EXPECT_TRUE(s.ok()) << "op " << i << ": " << s.ToString();
    }
    return ReadFile(WalPath());
  }

  // Truncate the WAL to `cut` bytes, reopen, and verify the invariants:
  //   - recovery succeeds,
  //   - exactly the fully-contained records replay,
  //   - the state equals the oracle prefix,
  //   - a partial tail is reported (and only then),
  //   - indexes agree with the heap and the database accepts new writes.
  void VerifyCut(const std::vector<Op>& ops, const std::string& wal,
                 const std::vector<size_t>& ends, size_t cut) {
    WriteFilePrefix(WalPath(), wal, cut);
    size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= cut) ++expected;
    bool expect_torn = cut > (expected == 0 ? 0 : ends[expected - 1]);

    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << "cut=" << cut << ": " << db.status().ToString();
    EXPECT_EQ((*db)->records_recovered(), expected) << "cut=" << cut;
    EXPECT_EQ((*db)->recovered_torn_tail(), expect_torn) << "cut=" << cut;
    EXPECT_EQ(Dump(db->get()), OracleDump(ops, expected)) << "cut=" << cut;
    CheckIndexConsistent(db->get());
    if ((*db)->HasTable("t")) {
      EXPECT_TRUE(
          (*db)->Insert("t", {Value::Int(9999), Value::Null()}).ok())
          << "recovered database refused a write, cut=" << cut;
    }
  }

  std::string dir_;
};

TEST_F(CrashMatrixTest, EveryRecordBoundaryAndTornCutRecoversOraclePrefix) {
  std::vector<Op> ops = Workload();
  std::string wal = RunWorkload(ops);
  std::vector<size_t> ends = RecordBoundaries(wal);
  // The matrix depends on the op<->record bijection; pin it down.
  ASSERT_EQ(ends.size(), ops.size());
  ASSERT_EQ(ends.back(), wal.size());

  std::set<size_t> cuts;
  if (std::getenv("XOMATIQ_CRASH_MATRIX_DENSE") != nullptr) {
    for (size_t c = 0; c <= wal.size(); ++c) cuts.insert(c);
  } else {
    cuts.insert(0);
    size_t start = 0;
    for (size_t end : ends) {
      // Clean boundary plus torn cuts inside the frame: inside the
      // length field, at the CRC, just into the payload, mid-payload,
      // one byte short of complete.
      cuts.insert(end);
      for (size_t mid : {start + 1, start + 4, start + 8,
                         start + (end - start) / 2, end - 1}) {
        if (mid > start && mid < end) cuts.insert(mid);
      }
      start = end;
    }
  }
  for (size_t cut : cuts) {
    VerifyCut(ops, wal, ends, cut);
    if (HasFatalFailure()) return;
  }
}

TEST_F(CrashMatrixTest, TailCutsAfterCheckpointKeepSnapshotPlusPrefix) {
  // Pre-checkpoint state lands in the snapshot; only the tail is at risk.
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE((*db)->Insert("t", {Value::Int(i), Value::Null()}).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    for (int i = 6; i < 12; ++i) {
      ASSERT_TRUE((*db)->Insert("t", {Value::Int(i), Value::Null()}).ok());
    }
  }
  std::string wal = ReadFile(WalPath());
  std::vector<size_t> ends = RecordBoundaries(wal);
  ASSERT_EQ(ends.size(), 6u);
  for (size_t k = 0; k <= ends.size(); ++k) {
    size_t cut = k == 0 ? 0 : ends[k - 1];
    WriteFilePrefix(WalPath(), wal, cut);
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->records_recovered(), k);
    auto table = (*db)->GetTable("t");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->num_live_rows(), 6u + k) << "cut=" << cut;
  }
}

TEST_F(CrashMatrixTest, BitFlipInAnyRecordDropsItAndItsSuffix) {
  std::vector<Op> ops = Workload();
  std::string wal = RunWorkload(ops);
  std::vector<size_t> ends = RecordBoundaries(wal);
  ASSERT_EQ(ends.size(), ops.size());
  // Flip one payload byte in a spread of records: the per-record CRC must
  // stop replay exactly there, keeping the intact prefix.
  for (size_t victim : {size_t{0}, ends.size() / 2, ends.size() - 1}) {
    size_t start = victim == 0 ? 0 : ends[victim - 1];
    std::string corrupted = wal;
    corrupted[start + 8] ^= 0x40;  // first payload byte
    WriteFilePrefix(WalPath(), corrupted, corrupted.size());
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->records_recovered(), victim);
    EXPECT_TRUE((*db)->recovered_torn_tail());
    EXPECT_EQ(Dump(db->get()), OracleDump(ops, victim));
  }
}

TEST_F(CrashMatrixTest, LiveTornAppendIsDiscardedOnReopen) {
  // Instead of editing bytes post-hoc, let the WAL itself crash mid-write
  // via the wal.append.torn fault point: the 4th insert writes a partial
  // frame and fails.
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
    FaultConfig torn;
    torn.policy = FaultPolicy::kNth;
    torn.n = 4;  // counting restarts at Arm: the 4th insert below
    FaultInjector::Global().Arm("wal.append.torn", torn);
    for (int i = 0; i < 4; ++i) {
      auto r = (*db)->Insert("t", {Value::Int(i), Value::Null()});
      if (i < 3) {
        ASSERT_TRUE(r.ok());
      } else {
        ASSERT_FALSE(r.ok()) << "torn append must surface as an error";
        EXPECT_EQ(r.status().code(), StatusCode::kIoError);
      }
    }
    EXPECT_EQ(FaultInjector::Global().fires("wal.append.torn"), 1u);
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->recovered_torn_tail());
  auto table = (*db)->GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_live_rows(), 3u) << "torn insert must not survive";
}

TEST_F(CrashMatrixTest, AppendBeforeFaultLeavesLogClean) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
    ASSERT_TRUE((*db)->Insert("t", {Value::Int(1), Value::Null()}).ok());
    FaultInjector::Global().Arm("wal.append.before", FaultConfig{});
    EXPECT_FALSE((*db)->Insert("t", {Value::Int(2), Value::Null()}).ok());
    FaultInjector::Global().Reset();
  }
  // Nothing was written for the failed append: no torn tail on reopen.
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->recovered_torn_tail());
  EXPECT_EQ((*(*db)->GetTable("t"))->num_live_rows(), 1u);
}

TEST_F(CrashMatrixTest, RecoveryRecordFaultSurfacesTyped) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
    ASSERT_TRUE((*db)->Insert("t", {Value::Int(1), Value::Null()}).ok());
  }
  FaultConfig fail;
  fail.code = StatusCode::kCorruption;
  FaultInjector::Global().Arm("db.recovery.record", fail);
  auto db = Database::Open(dir_);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
  FaultInjector::Global().Reset();
  // Recovery is read-only; once the fault clears, the same directory
  // opens fine.
  EXPECT_TRUE(Database::Open(dir_).ok());
}

TEST_F(CrashMatrixTest, SnapshotFaultsLeaveOldStateAuthoritative) {
  for (const char* point : {"db.snapshot.write", "db.snapshot.rename"}) {
    SCOPED_TRACE(point);
    std::filesystem::remove_all(dir_);
    {
      auto db = Database::Open(dir_);
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
      ASSERT_TRUE((*db)->Insert("t", {Value::Int(7), Value::Null()}).ok());
      FaultInjector::Global().Arm(point, FaultConfig{});
      EXPECT_FALSE((*db)->Checkpoint().ok());
      FaultInjector::Global().Reset();
    }
    // The failed checkpoint must not have truncated the WAL or installed
    // a partial snapshot: everything is still there.
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*(*db)->GetTable("t"))->num_live_rows(), 1u);
  }
}

TEST_F(CrashMatrixTest, WalResetFaultFailsCheckpointButKeepsServing) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable("t", TwoCol()).ok());
  ASSERT_TRUE((*db)->Insert("t", {Value::Int(1), Value::Null()}).ok());
  FaultInjector::Global().Arm("wal.reset", FaultConfig{});
  EXPECT_FALSE((*db)->Checkpoint().ok());
  FaultInjector::Global().Reset();
  // The database keeps accepting traffic after the failed checkpoint.
  EXPECT_TRUE((*db)->Insert("t", {Value::Int(2), Value::Null()}).ok());
  EXPECT_TRUE((*db)->Checkpoint().ok());
}

}  // namespace
}  // namespace xomatiq::rel
