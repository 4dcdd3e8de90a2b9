// Differential suite for morsel-driven parallel execution: every parallel
// operator (scan, hash join build/probe, sort, distinct) must produce
// byte-identical rows — values AND order — to the serial executor,
// including under a pinned MVCC snapshot with concurrent DML, and an
// expired deadline must surface as a typed kTimeout from parallel plans.
// Aggregates always run serially, over parallel inputs.
//
// The corpus uses dyadic doubles (multiples of 0.25) so SUM/AVG are exact
// in any summation order, making double aggregates comparable bit-for-bit
// rather than "close".
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/worker_pool.h"
#include "sql/engine.h"

namespace xomatiq::sql {
namespace {

using rel::Database;

std::vector<std::string> Render(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const auto& row : r.rows) {
    std::string s;
    for (const auto& v : row) {
      s += v.ToString();
      s += '|';
    }
    out.push_back(std::move(s));
  }
  return out;
}

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::OpenInMemory();
    serial_ = std::make_unique<SqlEngine>(db_.get());

    // Parallel engine: plans annotate every eligible operator (threshold
    // 1) at degree 4, and the executor fans out aggressively (tiny
    // morsels, low runtime row threshold) on an explicit 3-worker pool —
    // so the parallel machinery is exercised even on a 1-core host.
    pool_ = std::make_unique<exec::WorkerPool>(3);
    EngineOptions par;
    par.planner.parallel_scan_threshold = 1;
    par.planner.parallel_degree = 4;
    par.executor.pool = pool_.get();
    par.executor.morsel_rows = 64;
    par.executor.parallel_row_threshold = 16;
    parallel_ = std::make_unique<SqlEngine>(db_.get(), par);

    Run("CREATE TABLE big (id INT, grp INT, tag TEXT, val INT, dv DOUBLE)");
    Run("CREATE TABLE dim (id INT, grp INT, name TEXT, val INT)");
    FillBig(6000, /*seed=*/42);
    FillDim(4000, /*seed=*/7);
  }

  void FillBig(int n, unsigned seed) {
    std::mt19937 rng(seed);
    const char* tags[] = {"alpha", "beta", "gamma", "delta", "eps", "zeta"};
    for (int base = 0; base < n; base += 500) {
      std::string sql = "INSERT INTO big VALUES ";
      int hi = std::min(n, base + 500);
      for (int i = base; i < hi; ++i) {
        if (i != base) sql += ", ";
        sql += "(" + std::to_string(i) + ", " + std::to_string(rng() % 37) +
               ", '" + tags[rng() % 6] + "', " + std::to_string(rng() % 1000) +
               ", " + std::to_string(static_cast<double>(rng() % 400) / 4.0) +
               ")";
      }
      Run(sql);
    }
  }

  void FillDim(int n, unsigned seed) {
    std::mt19937 rng(seed);
    const char* names[] = {"red", "green", "blue", "cyan"};
    for (int base = 0; base < n; base += 500) {
      std::string sql = "INSERT INTO dim VALUES ";
      int hi = std::min(n, base + 500);
      for (int i = base; i < hi; ++i) {
        if (i != base) sql += ", ";
        sql += "(" + std::to_string(i) + ", " + std::to_string(rng() % 37) +
               ", '" + names[rng() % 4] + "', " +
               std::to_string(rng() % 1000) + ")";
      }
      Run(sql);
    }
  }

  void Run(const std::string& sql) {
    auto r = serial_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }

  // Runs `sql` on both engines and asserts identical row sequences.
  void ExpectSame(const std::string& sql) {
    auto s = serial_->Execute(sql);
    ASSERT_TRUE(s.ok()) << sql << ": " << s.status().ToString();
    auto p = parallel_->Execute(sql);
    ASSERT_TRUE(p.ok()) << sql << ": " << p.status().ToString();
    EXPECT_EQ(Render(*s), Render(*p)) << sql;
  }

  std::string Explain(const std::string& sql) {
    auto r = parallel_->Execute("EXPLAIN " + sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? r->explain_text : std::string();
  }

  // The first EXPLAIN line naming `op` ("" when none does).
  static std::string PlanLine(const std::string& plan, const std::string& op) {
    std::istringstream lines(plan);
    for (std::string line; std::getline(lines, line);) {
      if (line.find(op) != std::string::npos) return line;
    }
    return "";
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<exec::WorkerPool> pool_;
  std::unique_ptr<SqlEngine> serial_;
  std::unique_ptr<SqlEngine> parallel_;
};

TEST_F(ParallelExecTest, ScanAndFilterMatchSerial) {
  ExpectSame("SELECT id, tag, val FROM big WHERE val > 500");
  ExpectSame("SELECT id FROM big WHERE tag = 'alpha' AND val < 100");
}

TEST_F(ParallelExecTest, HashJoinMatchesSerial) {
  const std::string q =
      "SELECT b.id, d.id, d.name FROM big b, dim d "
      "WHERE b.grp = d.grp AND b.val > 940 AND d.val > 900";
  EXPECT_NE(Explain(q).find("workers="), std::string::npos)
      << "parallel plan expected:\n"
      << Explain(q);
  ExpectSame(q);
}

TEST_F(ParallelExecTest, AggregationMatchesSerialIncludingGroupOrder) {
  // No ORDER BY: the group output order itself (serial first-seen order)
  // is part of the contract; the parallel scan feeding the aggregate must
  // deliver rows in serial order to keep it.
  const std::string q =
      "SELECT grp, COUNT(*), SUM(val), SUM(dv), AVG(dv), MIN(tag), "
      "MAX(val) FROM big GROUP BY grp";
  const std::string plan = Explain(q);
  const std::string agg = PlanLine(plan, "Aggregate");
  ASSERT_FALSE(agg.empty()) << plan;
  EXPECT_EQ(agg.find("workers="), std::string::npos) << plan;
  EXPECT_NE(plan.find("workers="), std::string::npos) << plan;
  ExpectSame(q);
  ExpectSame("SELECT COUNT(*), SUM(dv), MIN(val), MAX(tag) FROM big");
}

TEST_F(ParallelExecTest, SortMatchesSerialIncludingTieOrder) {
  // Duplicate keys everywhere: equal-key rows must come out in input
  // order, exactly as stable_sort emits them.
  const std::string q = "SELECT tag, grp, id FROM big ORDER BY tag, grp";
  EXPECT_NE(Explain(q).find("workers="), std::string::npos);
  ExpectSame(q);
  ExpectSame("SELECT val, id FROM big ORDER BY val DESC");
}

TEST_F(ParallelExecTest, DistinctMatchesSerialIncludingFirstSeenOrder) {
  const std::string q = "SELECT DISTINCT tag, grp FROM big";
  EXPECT_NE(Explain(q).find("workers="), std::string::npos);
  ExpectSame(q);
}

TEST_F(ParallelExecTest, JoinAggSortPipelineMatchesSerial) {
  ExpectSame(
      "SELECT b.grp, COUNT(*), SUM(d.val) FROM big b, dim d "
      "WHERE b.grp = d.grp AND b.val > 800 AND d.val > 800 "
      "GROUP BY b.grp ORDER BY b.grp DESC");
}

TEST_F(ParallelExecTest, PinnedSnapshotIgnoresConcurrentDml) {
  const std::string q =
      "SELECT grp, COUNT(*), SUM(val) FROM big GROUP BY grp";
  rel::Snapshot snap = db_->BeginSnapshot();
  common::QueryRequest pinned = common::QueryRequest::Sql(q);
  pinned.read_epoch = snap.epoch();

  auto baseline = serial_->Execute(pinned);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::vector<std::string> want = Render(*baseline);

  // Writer mutates the table while pinned parallel reads repeat: every
  // read must keep seeing exactly the snapshot's rows.
  std::thread writer([&] {
    for (int i = 0; i < 40; ++i) {
      auto r = serial_->Execute(
          "INSERT INTO big VALUES (" + std::to_string(100000 + i) +
          ", 1, 'zzz', 999, 0.25)");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  });
  for (int i = 0; i < 10; ++i) {
    auto r = parallel_->Execute(pinned);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Render(*r), want) << "pinned read drifted on iteration " << i;
  }
  writer.join();

  // An unpinned read sees the writer's rows.
  auto fresh = parallel_->Execute("SELECT COUNT(*) FROM big WHERE id >= "
                                  "100000");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows[0][0].AsInt(), 40);
}

TEST_F(ParallelExecTest, DeadlineFiresFromParallelOperators) {
  // A join wide enough (~800k pairs) that a 1ms budget expires inside the
  // parallel build/probe loops, not just at operator entry.
  common::QueryOptions opts;
  opts.deadline_ms = 1;
  auto r = parallel_->Execute(common::QueryRequest::Sql(
      "SELECT b.id, d.id FROM big b, dim d WHERE b.grp = d.grp", opts));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kTimeout)
      << r.status().ToString();
}

TEST_F(ParallelExecTest, ExplainAnalyzeReportsWorkersAndMorsels) {
  auto r = parallel_->Execute(
      "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM big GROUP BY grp");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& text = r->explain_text;
  EXPECT_NE(text.find("workers="), std::string::npos) << text;
  EXPECT_NE(text.find("morsels="), std::string::npos) << text;
  EXPECT_NE(text.find("partitions=["), std::string::npos) << text;
}

}  // namespace
}  // namespace xomatiq::sql
