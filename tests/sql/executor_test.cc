#include "sql/executor.h"

#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "sql/engine.h"

namespace xomatiq::sql {
namespace {

using rel::Database;
using rel::Tuple;
using rel::Value;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::OpenInMemory();
    engine_ = std::make_unique<SqlEngine>(db_.get());
    Run("CREATE TABLE t (id INT, grp INT, name TEXT, score DOUBLE)");
    const char* rows[] = {
        "(1, 1, 'alpha', 1.0)",  "(2, 1, 'beta', 2.0)",
        "(3, 2, 'gamma', NULL)", "(4, 2, 'delta', 4.0)",
        "(5, 3, 'alpha', 5.0)",
    };
    for (const char* r : rows) {
      Run(std::string("INSERT INTO t VALUES ") + r);
    }
  }

  void Run(const std::string& sql) {
    auto r = engine_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }

  QueryResult Query(const std::string& sql) {
    auto r = engine_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(ExecutorTest, ProjectionAndFilter) {
  QueryResult r = Query("SELECT name FROM t WHERE grp = 2 ORDER BY id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsText(), "gamma");
  EXPECT_EQ(r.rows[1][0].AsText(), "delta");
}

TEST_F(ExecutorTest, SelectStarKeepsAllColumns) {
  QueryResult r = Query("SELECT * FROM t WHERE id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].size(), 4u);
  EXPECT_EQ(r.schema.column(2).name, "name");
}

TEST_F(ExecutorTest, NullNeverMatchesComparison) {
  QueryResult eq = Query("SELECT id FROM t WHERE score = 4.0");
  EXPECT_EQ(eq.rows.size(), 1u);
  QueryResult lt = Query("SELECT id FROM t WHERE score < 100");
  EXPECT_EQ(lt.rows.size(), 4u);  // NULL score row excluded
  QueryResult isnull = Query("SELECT id FROM t WHERE score IS NULL");
  ASSERT_EQ(isnull.rows.size(), 1u);
  EXPECT_EQ(isnull.rows[0][0].AsInt(), 3);
}

TEST_F(ExecutorTest, OrderByDescWithNulls) {
  QueryResult r = Query("SELECT id FROM t ORDER BY score DESC, id");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  // NULL sorts lowest, so DESC puts it last.
  EXPECT_EQ(r.rows[4][0].AsInt(), 3);
}

TEST_F(ExecutorTest, LimitOffset) {
  QueryResult r = Query("SELECT id FROM t ORDER BY id LIMIT 2 OFFSET 1");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
  EXPECT_EQ(Query("SELECT id FROM t LIMIT 0").rows.size(), 0u);
  EXPECT_EQ(Query("SELECT id FROM t LIMIT 100").rows.size(), 5u);
}

TEST_F(ExecutorTest, Distinct) {
  QueryResult r = Query("SELECT DISTINCT name FROM t ORDER BY name");
  ASSERT_EQ(r.rows.size(), 4u);  // alpha dedups
}

TEST_F(ExecutorTest, GroupByWithAggregates) {
  QueryResult r = Query(
      "SELECT grp, COUNT(*) AS n, SUM(score) AS total, MIN(name) AS lo "
      "FROM t GROUP BY grp ORDER BY grp");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);                 // grp 1 count
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 3.0);     // 1.0 + 2.0
  EXPECT_EQ(r.rows[1][1].AsInt(), 2);                 // grp 2 count
  EXPECT_DOUBLE_EQ(r.rows[1][2].AsDouble(), 4.0);     // NULL skipped
  EXPECT_EQ(r.rows[0][3].AsText(), "alpha");
}

TEST_F(ExecutorTest, CountColumnSkipsNulls) {
  QueryResult r = Query("SELECT COUNT(score), COUNT(*) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);
  EXPECT_EQ(r.rows[0][1].AsInt(), 5);
}

TEST_F(ExecutorTest, GrandAggregateOnEmptyInput) {
  QueryResult r =
      Query("SELECT COUNT(*), SUM(score), MIN(id) FROM t WHERE id > 100");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
}

TEST_F(ExecutorTest, Having) {
  QueryResult r = Query(
      "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp "
      "HAVING COUNT(*) > 1 ORDER BY grp");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 2);
}

TEST_F(ExecutorTest, AvgIsDouble) {
  QueryResult r = Query("SELECT AVG(score) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 3.0);  // (1+2+4+5)/4
}

TEST_F(ExecutorTest, JoinCombinations) {
  Run("CREATE TABLE u (tid INT, tag TEXT)");
  Run("INSERT INTO u VALUES (1, 'x'), (1, 'y'), (3, 'z'), (99, 'w')");
  // Hash join (no index on either side).
  QueryResult r = Query(
      "SELECT t.id, u.tag FROM t, u WHERE t.id = u.tid ORDER BY t.id, u.tag");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsText(), "x");
  EXPECT_EQ(r.rows[2][1].AsText(), "z");
  // Same result with an index available (index-nested-loop path).
  Run("CREATE INDEX t_id ON t (id) USING HASH");
  QueryResult r2 = Query(
      "SELECT t.id, u.tag FROM u, t WHERE t.id = u.tid ORDER BY t.id, u.tag");
  ASSERT_EQ(r2.rows.size(), 3u);
  for (size_t i = 0; i < r.rows.size(); ++i) {
    EXPECT_EQ(r.rows[i][0].AsInt(), r2.rows[i][0].AsInt());
    EXPECT_EQ(r.rows[i][1].AsText(), r2.rows[i][1].AsText());
  }
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  Run("CREATE TABLE a (x INT)");
  Run("CREATE TABLE b (x INT)");
  Run("INSERT INTO a VALUES (1), (2)");
  Run("INSERT INTO b VALUES (2), (3)");
  QueryResult r = Query(
      "SELECT t.id FROM a, b, t WHERE a.x = b.x AND b.x = t.id");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(ExecutorTest, ExplicitJoinSyntax) {
  Run("CREATE TABLE u (tid INT, tag TEXT)");
  Run("INSERT INTO u VALUES (1, 'x')");
  QueryResult r =
      Query("SELECT u.tag FROM t JOIN u ON t.id = u.tid");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "x");
}

TEST_F(ExecutorTest, DeleteAndUpdateThroughEngine) {
  auto del = engine_->Execute("DELETE FROM t WHERE grp = 1");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->affected, 2u);
  EXPECT_EQ(Query("SELECT id FROM t").rows.size(), 3u);
  auto upd = engine_->Execute("UPDATE t SET score = score + 1 WHERE id = 4");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->affected, 1u);
  QueryResult r = Query("SELECT score FROM t WHERE id = 4");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 5.0);
}

TEST_F(ExecutorTest, InsertWithColumnListFillsNulls) {
  Run("INSERT INTO t (id) VALUES (42)");
  QueryResult r = Query("SELECT name FROM t WHERE id = 42");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
}

// --- batch-boundary behavior -------------------------------------------
//
// The batched pipeline must be insensitive to where batch boundaries
// fall: a capacity-1 engine, an engine whose batch is exactly as large
// as the table, and the default all have to produce identical results.

class BatchBoundaryTest : public ExecutorTest {
 protected:
  QueryResult QueryCap(size_t capacity, const std::string& sql) {
    EngineOptions options;
    options.executor.batch_capacity = capacity;
    SqlEngine engine(db_.get(), options);
    auto r = engine.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  static void ExpectSameRows(const QueryResult& got, const QueryResult& want,
                             const std::string& label) {
    ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
    for (size_t i = 0; i < want.rows.size(); ++i) {
      ASSERT_EQ(got.rows[i].size(), want.rows[i].size()) << label;
      for (size_t j = 0; j < want.rows[i].size(); ++j) {
        EXPECT_EQ(Value::Compare(got.rows[i][j], want.rows[i][j]), 0)
            << label << " row " << i << " col " << j;
      }
    }
  }
};

TEST_F(BatchBoundaryTest, EveryOperatorAgreesAcrossCapacities) {
  Run("CREATE TABLE u (tid INT, tag TEXT)");
  Run("INSERT INTO u VALUES (1, 'x'), (1, 'y'), (3, 'z'), (99, 'w')");
  Run("CREATE INDEX t_id ON t (id) USING HASH");
  const char* queries[] = {
      "SELECT * FROM t",
      "SELECT name FROM t WHERE grp = 2 ORDER BY id",
      "SELECT id FROM t ORDER BY score DESC, id",
      "SELECT DISTINCT name FROM t ORDER BY name",
      "SELECT grp, COUNT(*), SUM(score) FROM t GROUP BY grp ORDER BY grp",
      "SELECT grp FROM t GROUP BY grp HAVING COUNT(*) > 1 ORDER BY grp",
      // Hash join (u has no index) and index-NL join (t.id is indexed).
      "SELECT t.id, u.tag FROM t, u WHERE t.id = u.tid ORDER BY t.id, u.tag",
      "SELECT t.id, u.tag FROM u, t WHERE t.id = u.tid ORDER BY t.id, u.tag",
      // Cross-table non-equi conjunct: planned as a Filter over the join,
      // executed as a fused pair predicate (no concatenated row is built
      // for failing pairs).
      "SELECT t.id, u.tag FROM t, u WHERE t.id = u.tid AND t.name < u.tag "
      "ORDER BY t.id, u.tag",
      // Pure nested loop (inequality join).
      "SELECT t.id, u.tid FROM t, u WHERE t.id < u.tid ORDER BY t.id, u.tid",
  };
  for (const char* sql : queries) {
    QueryResult want = Query(sql);
    for (size_t cap : {size_t{1}, size_t{2}, size_t{5}}) {
      ExpectSameRows(QueryCap(cap, sql), want,
                     std::string(sql) + " @cap=" + std::to_string(cap));
    }
  }
}

TEST_F(BatchBoundaryTest, ExactlyFullBatch) {
  // t holds exactly 5 rows; a capacity-5 scan fills one batch to the brim
  // and must not emit a phantom empty or duplicate batch after it.
  QueryResult r = QueryCap(5, "SELECT id FROM t ORDER BY id");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[4][0].AsInt(), 5);
}

TEST_F(BatchBoundaryTest, LimitOffsetMidBatch) {
  // Capacity 2 makes LIMIT/OFFSET land inside a batch: OFFSET 1 drops
  // half of the first batch, LIMIT 3 truncates inside the second.
  QueryResult r =
      QueryCap(2, "SELECT id FROM t ORDER BY id LIMIT 3 OFFSET 1");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[2][0].AsInt(), 4);
  // Boundary-aligned: OFFSET consumes exactly the first batch.
  QueryResult r2 =
      QueryCap(2, "SELECT id FROM t ORDER BY id LIMIT 2 OFFSET 2");
  ASSERT_EQ(r2.rows.size(), 2u);
  EXPECT_EQ(r2.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r2.rows[1][0].AsInt(), 4);
  // LIMIT larger than the input and OFFSET past the end.
  EXPECT_EQ(QueryCap(2, "SELECT id FROM t LIMIT 100").rows.size(), 5u);
  EXPECT_EQ(QueryCap(2, "SELECT id FROM t LIMIT 5 OFFSET 7").rows.size(), 0u);
}

TEST_F(BatchBoundaryTest, EmptyInputPerOperator) {
  Run("CREATE TABLE e (id INT, v TEXT)");
  for (size_t cap : {size_t{1}, rel::RowBatch::kDefaultCapacity}) {
    const std::string label = "cap=" + std::to_string(cap);
    EXPECT_EQ(QueryCap(cap, "SELECT * FROM e").rows.size(), 0u) << label;
    EXPECT_EQ(QueryCap(cap, "SELECT id FROM e WHERE id > 0").rows.size(), 0u)
        << label;
    EXPECT_EQ(QueryCap(cap, "SELECT id FROM e ORDER BY v").rows.size(), 0u)
        << label;
    EXPECT_EQ(QueryCap(cap, "SELECT DISTINCT v FROM e").rows.size(), 0u)
        << label;
    EXPECT_EQ(QueryCap(cap, "SELECT id FROM e LIMIT 3").rows.size(), 0u)
        << label;
    EXPECT_EQ(QueryCap(cap, "SELECT v, COUNT(*) FROM e GROUP BY v").rows.size(),
              0u)
        << label;
    // A grand aggregate over empty input still yields its one row.
    QueryResult agg = QueryCap(cap, "SELECT COUNT(*), MIN(id) FROM e");
    ASSERT_EQ(agg.rows.size(), 1u) << label;
    EXPECT_EQ(agg.rows[0][0].AsInt(), 0) << label;
    EXPECT_TRUE(agg.rows[0][1].is_null()) << label;
    // Joins with an empty build side, probe side, and outer side.
    EXPECT_EQ(
        QueryCap(cap, "SELECT t.id FROM t, e WHERE t.id = e.id").rows.size(),
        0u)
        << label;
    EXPECT_EQ(
        QueryCap(cap, "SELECT t.id FROM e, t WHERE t.id = e.id").rows.size(),
        0u)
        << label;
    EXPECT_EQ(
        QueryCap(cap, "SELECT t.id FROM t, e WHERE t.id < e.id").rows.size(),
        0u)
        << label;
  }
}

TEST_F(BatchBoundaryTest, ParallelScanMatchesSerial) {
  // Force every seq scan to the parallel path with an explicit degree;
  // the RowId-order merge must reproduce the serial scan's row order.
  EngineOptions par;
  par.planner.parallel_scan_threshold = 1;
  par.planner.parallel_degree = 3;
  SqlEngine par_engine(db_.get(), par);

  auto explain = par_engine.Execute("EXPLAIN SELECT id FROM t WHERE grp = 2");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->explain_text.find("ParallelSeqScan"), std::string::npos)
      << explain->explain_text;

  const char* queries[] = {
      "SELECT * FROM t",
      "SELECT id FROM t WHERE grp = 2",
      "SELECT id, name FROM t WHERE score < 100",
      "SELECT id FROM t LIMIT 2",
  };
  for (const char* sql : queries) {
    QueryResult want = Query(sql);
    auto got = par_engine.Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    ExpectSameRows(*got, want, sql);
  }
}

TEST_F(ExecutorTest, ToTableRendering) {
  QueryResult r = Query("SELECT id, name FROM t WHERE id = 1");
  std::string table = r.ToTable();
  EXPECT_NE(table.find("| id | name"), std::string::npos) << table;
  EXPECT_NE(table.find("| 1  | alpha"), std::string::npos) << table;
  EXPECT_NE(table.find("1 row(s)"), std::string::npos);
}

// --- EXPLAIN ANALYZE ----------------------------------------------------

// First "actual rows=N" on the line naming operator `op`; 0 with a test
// failure when the operator or its actuals are missing.
uint64_t ActualRows(const std::string& text, const std::string& op) {
  size_t line = text.find(op);
  if (line == std::string::npos) {
    ADD_FAILURE() << "operator " << op << " not in plan:\n" << text;
    return 0;
  }
  size_t eol = text.find('\n', line);
  size_t pos = text.find("actual rows=", line);
  if (pos == std::string::npos || pos > eol) {
    ADD_FAILURE() << "no actuals for " << op << " in plan:\n" << text;
    return 0;
  }
  return std::stoull(text.substr(pos + 12));
}

TEST_F(ExecutorTest, ExplainAnalyzeScanActualsMatchResults) {
  QueryResult want = Query("SELECT * FROM t");
  QueryResult r = Query("EXPLAIN ANALYZE SELECT * FROM t");
  // EXPLAIN ANALYZE returns the annotated tree, not the rows.
  EXPECT_TRUE(r.rows.empty());
  EXPECT_NE(r.explain_text.find("time="), std::string::npos)
      << r.explain_text;
  EXPECT_EQ(ActualRows(r.explain_text, "SeqScan"), want.rows.size());
  // Plain EXPLAIN renders the same tree without actuals.
  QueryResult plain = Query("EXPLAIN SELECT * FROM t");
  EXPECT_EQ(plain.explain_text.find("actual rows="), std::string::npos);
}

TEST_F(ExecutorTest, ExplainAnalyzeIndexLookup) {
  Run("CREATE INDEX t_id ON t (id) USING HASH");
  QueryResult want = Query("SELECT * FROM t WHERE id = 2");
  ASSERT_EQ(want.rows.size(), 1u);
  QueryResult r = Query("EXPLAIN ANALYZE SELECT * FROM t WHERE id = 2");
  EXPECT_EQ(ActualRows(r.explain_text, "IndexScan"), want.rows.size());
}

TEST_F(ExecutorTest, ExplainAnalyzeJoinActualsMatchResults) {
  Run("CREATE TABLE u (tid INT, tag TEXT)");
  Run("INSERT INTO u VALUES (1, 'x'), (1, 'y'), (3, 'z'), (99, 'w')");
  QueryResult want =
      Query("SELECT t.id, u.tag FROM t, u WHERE t.id = u.tid");
  ASSERT_EQ(want.rows.size(), 3u);
  QueryResult r = Query(
      "EXPLAIN ANALYZE SELECT t.id, u.tag FROM t, u WHERE t.id = u.tid");
  // The root Project emits exactly the result rows.
  EXPECT_EQ(ActualRows(r.explain_text, "Project"), want.rows.size());
}

TEST_F(ExecutorTest, ExplainAnalyzeFusedFilterIsLabeled) {
  QueryResult r = Query("EXPLAIN ANALYZE SELECT id FROM t WHERE grp = 2");
  // The filter's scan child ran inside the filter; its line says so
  // instead of showing misleading zero counters.
  EXPECT_NE(r.explain_text.find("(fused into parent"), std::string::npos)
      << r.explain_text;
  EXPECT_EQ(ActualRows(r.explain_text, "Filter"), 2u);
}

// The EXPLAIN line naming operator `op` ("" when none does).
std::string PlanLine(const std::string& text, const std::string& op) {
  size_t line = text.find(op);
  if (line == std::string::npos) return "";
  size_t bol = text.rfind('\n', line);
  bol = bol == std::string::npos ? 0 : bol + 1;
  return text.substr(bol, text.find('\n', line) - bol);
}

// kv: 60 rows, k = id % 3 under a hash index, val = id, and an inverted
// index over body, which says 'kinase' on even ids.
void CreateKv(const std::function<void(const std::string&)>& run) {
  run("CREATE TABLE kv (id INT, k INT, val INT, body TEXT)");
  std::string sql = "INSERT INTO kv VALUES ";
  for (int id = 0; id < 60; ++id) {
    if (id > 0) sql += ", ";
    sql += "(" + std::to_string(id) + ", " + std::to_string(id % 3) + ", " +
           std::to_string(id) + ", '" +
           (id % 2 == 0 ? "cdc6 kinase" : "helicase") + "')";
  }
  run(sql);
  run("CREATE INDEX kv_k ON kv (k) USING HASH");
  run("CREATE INDEX kv_body ON kv (body) USING INVERTED");
}

TEST_F(ExecutorTest, FilterFusesIntoIndexAndKeywordScans) {
  CreateKv([this](const std::string& sql) { Run(sql); });
  struct Case {
    std::string sql;
    std::string scan;
    uint64_t scanned;  // rows the index probe yields before the residual
    size_t result;
  };
  const Case cases[] = {
      {"SELECT id FROM kv WHERE k = 1 AND val > 30", "IndexScan", 20, 10},
      {"SELECT id FROM kv WHERE CONTAINS(body, 'kinase') AND val > 30",
       "KeywordScan", 30, 14},
  };
  for (const Case& c : cases) {
    QueryResult want = Query(c.sql);
    EXPECT_EQ(want.rows.size(), c.result) << c.sql;
    QueryResult r = Query("EXPLAIN ANALYZE " + c.sql);
    const std::string& text = r.explain_text;
    // The residual runs inside the index scan, which still shows the
    // rows it fetched before the predicate.
    EXPECT_NE(PlanLine(text, c.scan).find("(fused into parent"),
              std::string::npos)
        << text;
    EXPECT_EQ(ActualRows(text, c.scan), c.scanned) << text;
    EXPECT_EQ(ActualRows(text, "Filter"), want.rows.size()) << text;
  }
}

TEST_F(ExecutorTest, FusedIndexScanReadsPinnedSnapshot) {
  CreateKv([this](const std::string& sql) { Run(sql); });
  const std::string q = "SELECT id FROM kv WHERE k = 1 AND val > 30";
  QueryResult plan = Query("EXPLAIN ANALYZE " + q);
  ASSERT_NE(PlanLine(plan.explain_text, "IndexScan").find("(fused"),
            std::string::npos)
      << plan.explain_text;
  rel::Snapshot snap = db_->BeginSnapshot();
  common::QueryRequest pinned = common::QueryRequest::Sql(q);
  pinned.read_epoch = snap.epoch();
  auto before = engine_->Execute(pinned);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->rows.size(), 10u);
  // Move two matching rows off the probed key and one more onto it. The
  // writer runs on its own thread, as it would beside a pinned reader;
  // this thread holds the snapshot.
  std::thread writer([this] {
    Run("UPDATE kv SET k = 2 WHERE id = 31 OR id = 34");
    Run("UPDATE kv SET k = 1 WHERE id = 33");
  });
  writer.join();
  auto after = engine_->Execute(pinned);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->rows.size(), before->rows.size());
  for (size_t i = 0; i < before->rows.size(); ++i) {
    EXPECT_EQ(after->rows[i][0].AsInt(), before->rows[i][0].AsInt());
  }
  EXPECT_EQ(Query(q).rows.size(), 9u);
}

TEST_F(ExecutorTest, FilteredSerialScanHonorsDeadline) {
  // 20,000 rows (below the parallel-scan threshold) of ~40 words each,
  // which the CONTAINS predicate tokenizes row by row: the filtered scan
  // runs far longer than the 1 ms budget and must stop with kTimeout
  // instead of finishing.
  Run("CREATE TABLE docs (id INT, body TEXT)");
  std::string body;
  for (int w = 0; w < 40; ++w) body += "word" + std::to_string(w) + " ";
  for (int base = 0; base < 20000; base += 500) {
    std::string sql = "INSERT INTO docs VALUES ";
    for (int id = base; id < base + 500; ++id) {
      if (id > base) sql += ", ";
      sql += "(" + std::to_string(id) + ", '" + body + "')";
    }
    Run(sql);
  }
  const std::string q =
      "SELECT id FROM docs WHERE CONTAINS(body, 'zzz') OR "
      "CONTAINS(body, 'yyy')";
  ASSERT_NE(Query("EXPLAIN " + q).explain_text.find("SeqScan docs"),
            std::string::npos);
  common::QueryOptions opts;
  opts.deadline_ms = 1;
  auto r = engine_->Execute(common::QueryRequest::Sql(q, opts));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kTimeout)
      << r.status().ToString();
}

TEST_F(ExecutorTest, ExplainAnalyzeLimitFinalizesMidBatchStats) {
  // LIMIT cancels the pipeline mid-batch; every operator above and below
  // the cut must still report finalized actuals.
  QueryResult r = Query("EXPLAIN ANALYZE SELECT id FROM t LIMIT 2");
  EXPECT_EQ(ActualRows(r.explain_text, "Limit"), 2u);
  // The scan may emit fewer rows than the table (early termination) but
  // at least the limit's worth, and its counters must be present.
  uint64_t scanned = ActualRows(r.explain_text, "SeqScan");
  EXPECT_GE(scanned, 2u);
  EXPECT_LE(scanned, 5u);
}

TEST_F(ExecutorTest, ExplainAnalyzeKeywordsAreCaseInsensitive) {
  QueryResult r = Query("explain analyze select id from t");
  EXPECT_NE(r.explain_text.find("actual rows="), std::string::npos)
      << r.explain_text;
}

TEST_F(ExecutorTest, ExplainAnalyzeParallelScanReportsPartitions) {
  EngineOptions par;
  par.planner.parallel_scan_threshold = 1;
  par.planner.parallel_degree = 3;
  SqlEngine par_engine(db_.get(), par);
  auto r = par_engine.Execute(
      "EXPLAIN ANALYZE SELECT id FROM t WHERE grp = 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& text = r->explain_text;
  ASSERT_NE(text.find("ParallelSeqScan"), std::string::npos) << text;
  size_t pos = text.find("partitions=[");
  ASSERT_NE(pos, std::string::npos) << text;
  // Per-partition counts sum to the scan's post-filter output (2 rows).
  uint64_t total = 0;
  size_t cursor = pos + 12;
  while (cursor < text.size() && text[cursor] != ']') {
    if (text[cursor] >= '0' && text[cursor] <= '9') {
      total += std::stoull(text.substr(cursor));
      while (cursor < text.size() && text[cursor] >= '0' &&
             text[cursor] <= '9') {
        ++cursor;
      }
    } else {
      ++cursor;
    }
  }
  EXPECT_EQ(total, 2u) << text;
}

TEST_F(ExecutorTest, StatsCommandDumpsAndResetsRegistry) {
  Query("SELECT * FROM t");
  QueryResult stats = Query("STATS");
  // Engine counters surface in Prometheus exposition form.
  EXPECT_NE(stats.explain_text.find("# TYPE sql_queries counter"),
            std::string::npos)
      << stats.explain_text;
  EXPECT_NE(stats.explain_text.find("rel_table_rows_scanned"),
            std::string::npos);
  Query("RESET STATS");
  QueryResult after = Query("reset stats");  // case-insensitive, idempotent
  EXPECT_TRUE(after.explain_text.empty());
}

TEST_F(ExecutorTest, WalStatusReportsLsnPositions) {
  QueryResult r = Query("WAL STATUS");
  ASSERT_EQ(r.rows.size(), 7u);
  bool saw_durable_lsn = false, saw_applied_lsn = false;
  bool saw_committed_lsn = false;
  for (const Tuple& row : r.rows) {
    const std::string field = row[0].AsText();
    if (field == "durable_lsn" || field == "applied_lsn" ||
        field == "committed_lsn") {
      saw_durable_lsn |= field == "durable_lsn";
      saw_applied_lsn |= field == "applied_lsn";
      saw_committed_lsn |= field == "committed_lsn";
      // 6 inserts + CREATE TABLE; at writer quiescence the in-memory
      // apply, the published commit point and durability all agree.
      EXPECT_EQ(row[1].AsText(), std::to_string(db_->durable_lsn()));
    }
    if (field == "durable") {
      EXPECT_EQ(row[1].AsText(), "false");
    }
  }
  EXPECT_TRUE(saw_durable_lsn);
  EXPECT_TRUE(saw_applied_lsn);
  EXPECT_TRUE(saw_committed_lsn);
  // Another statement advances the reported position.
  Run("INSERT INTO t VALUES (6, 3, 'omega', 6.0)");
  QueryResult after = Query("wal status");  // case-insensitive
  EXPECT_EQ(after.rows[1][1].AsText(), std::to_string(db_->durable_lsn()));
}

}  // namespace
}  // namespace xomatiq::sql
