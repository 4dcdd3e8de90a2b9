// Differential correctness harness for the cost-based optimizer: every
// query runs twice — once through the costed planner (kAuto over analyzed
// tables) and once through the worst-case kFromOrder baseline — and the
// two result sets must be identical as multisets. Join order and join
// method are pure physical choices; any row-level divergence is an
// optimizer bug.
//
// Also covers durability of the statistics that feed the optimizer: stats
// written by ANALYZE must survive a crash (WAL replay, with snapshot
// writes fault-injected to fail) and a clean checkpoint.

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "sql/engine.h"

namespace xomatiq::sql {
namespace {

using common::FaultConfig;
using common::FaultInjector;
using common::FaultPolicy;
using rel::Database;

const std::vector<const char*>& Queries() {
  static const std::vector<const char*> queries = {
      // Single table, every predicate family.
      "SELECT id FROM node WHERE id = 17",
      "SELECT id FROM node WHERE path > 1 AND path <= 3",
      "SELECT id FROM node WHERE ord = 2 OR ord = 4",
      "SELECT id FROM node WHERE id IN (3, 5, 250)",
      "SELECT id FROM node WHERE id BETWEEN 10 AND 20",
      "SELECT value FROM txt WHERE CONTAINS(value, 'token7')",
      // Two-way joins, both directions.
      "SELECT t.value FROM txt t, node n WHERE t.node = n.id AND n.path = 2",
      "SELECT n.id FROM node n, txt t WHERE t.node = n.id "
      "AND CONTAINS(t.value, 'token3')",
      "SELECT n.id, m.id FROM node n, node m "
      "WHERE n.ord = m.ord AND n.id < 5",
      // Three-way joins in deliberately bad FROM orders.
      "SELECT n.id FROM node n, txt t, doc d "
      "WHERE t.node = n.id AND n.doc = d.id AND d.id = 3",
      "SELECT d.coll, n.id FROM txt t, node n, doc d "
      "WHERE t.node = n.id AND n.doc = d.id AND CONTAINS(t.value, 'token5')",
      // Shaping operators above the join.
      "SELECT doc, COUNT(*) FROM node GROUP BY doc HAVING COUNT(*) > 10",
      "SELECT DISTINCT d.coll FROM doc d, node n WHERE n.doc = d.id",
      "SELECT id FROM node WHERE path = 1 ORDER BY id LIMIT 7",
      "SELECT n.id FROM node n, doc d "
      "WHERE n.doc = d.id ORDER BY n.id LIMIT 10",
  };
  return queries;
}

void Seed(SqlEngine* engine) {
  auto run = [&](const std::string& sql) {
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  };
  run("CREATE TABLE doc (id INT, coll TEXT)");
  run("CREATE TABLE node (doc INT, id INT, path INT, ord INT)");
  run("CREATE TABLE txt (node INT, value TEXT)");
  run("CREATE INDEX doc_id ON doc (id) USING HASH");
  run("CREATE INDEX node_id ON node (id) USING HASH");
  run("CREATE INDEX node_path ON node (path)");
  run("CREATE INDEX node_doc ON node (doc)");
  run("CREATE INDEX txt_node ON txt (node) USING HASH");
  run("CREATE INDEX txt_kw ON txt (value) USING INVERTED");
  for (int i = 0; i < 10; ++i) {
    run("INSERT INTO doc VALUES (" + std::to_string(i) + ", 'c" +
        std::to_string(i % 3) + "')");
  }
  std::string nodes = "INSERT INTO node VALUES ";
  std::string txts = "INSERT INTO txt VALUES ";
  for (int i = 0; i < 240; ++i) {
    if (i > 0) {
      nodes += ", ";
      txts += ", ";
    }
    nodes += "(" + std::to_string(i % 10) + ", " + std::to_string(i) + ", " +
             std::to_string(i % 5) + ", " + std::to_string(i % 7) + ")";
    txts += "(" + std::to_string(i) + ", 'value token" +
            std::to_string(i % 30) + "')";
  }
  run(nodes);
  run(txts);
}

// One pipe-joined line per row, in result order.
std::vector<std::string> Lines(const QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const rel::Tuple& tuple : result.rows) {
    std::string line;
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) line += "|";
      line += tuple[i].ToString();
    }
    rows.push_back(std::move(line));
  }
  return rows;
}

// Canonical multiset rendering of a result: its lines, sorted.
std::vector<std::string> Canonical(const QueryResult& result) {
  std::vector<std::string> rows = Lines(result);
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(OptimizerDifferentialTest, CostBasedMatchesFromOrderBaseline) {
  auto db = Database::OpenInMemory();
  SqlEngine costed(db.get());
  EngineOptions baseline_opts;
  baseline_opts.planner.mode = PlannerMode::kFromOrder;
  SqlEngine baseline(db.get(), baseline_opts);
  Seed(&costed);
  ASSERT_TRUE(costed.Execute("ANALYZE").ok());

  for (const char* sql : Queries()) {
    auto a = costed.Execute(sql);
    auto b = baseline.Execute(sql);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    EXPECT_EQ(Canonical(*a), Canonical(*b)) << sql;
    // The costed engine really did plan with estimates.
    auto plan = costed.Execute(std::string("EXPLAIN ") + sql);
    ASSERT_TRUE(plan.ok()) << sql;
    EXPECT_NE(plan->explain_text.find("est rows="), std::string::npos)
        << sql << "\n"
        << plan->explain_text;
  }
}

TEST(OptimizerDifferentialTest, ErrorsMatchRuleBasedPipeline) {
  auto db = Database::OpenInMemory();
  SqlEngine costed(db.get());
  EngineOptions rule_opts;
  rule_opts.planner.mode = PlannerMode::kRuleBased;
  SqlEngine rule(db.get(), rule_opts);
  Seed(&costed);
  ASSERT_TRUE(costed.Execute("ANALYZE").ok());

  const char* bad[] = {
      "SELECT ghost FROM node",
      "SELECT id FROM node WHERE ghost = 1",
      "SELECT x.id FROM node x, txt x",
      "SELECT id, COUNT(*) FROM node GROUP BY doc",
      "SELECT n.id FROM node n WHERE m.id = 1",
  };
  for (const char* sql : bad) {
    auto a = costed.Execute(sql);
    auto b = rule.Execute(sql);
    ASSERT_FALSE(a.ok()) << sql;
    ASSERT_FALSE(b.ok()) << sql;
    EXPECT_EQ(a.status().ToString(), b.status().ToString()) << sql;
  }
}

TEST(OptimizerDifferentialTest, SeventyRelationJoinSameWithAndWithoutStats) {
  // Joins over more than PhysicalPlanner::kMaxCostedRelations relations
  // plan by rules even when every table is analyzed.
  auto db = Database::OpenInMemory();
  SqlEngine engine(db.get());
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (id INT, v INT)").ok());
  ASSERT_TRUE(engine.Execute("CREATE INDEX t_id ON t (id) USING HASH").ok());
  ASSERT_TRUE(
      engine.Execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
          .ok());
  std::string sql = "SELECT t0.id, t69.v FROM t t0";
  std::string where = " WHERE t0.v > 15";
  for (int i = 1; i < 70; ++i) {
    std::string cur = "t" + std::to_string(i);
    sql += ", t " + cur;
    where += " AND " + cur + ".id = t" + std::to_string(i - 1) + ".id";
  }
  sql += where;
  const std::vector<std::string> want = {"2|20", "3|30", "4|40"};

  auto unanalyzed = engine.Execute(sql);
  ASSERT_TRUE(unanalyzed.ok()) << unanalyzed.status().ToString();
  EXPECT_EQ(Canonical(*unanalyzed), want);
  ASSERT_TRUE(engine.Execute("ANALYZE").ok());
  auto analyzed = engine.Execute(sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(Canonical(*analyzed), want);
  auto plan = engine.Execute("EXPLAIN " + sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->explain_text.find("est rows="), std::string::npos)
      << plan->explain_text;
}

// Occurrences of `needle` in `text`.
size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// A join graph with several connected components plans each component on
// its own and crosses them last. Under a DISTINCT root each component is
// narrowed to the columns read above the join and deduplicated; one that
// nothing above reads keeps a single row. Rule and costed plans must
// return the kFromOrder chain's rows in the same order.
class ComponentDedupeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::OpenInMemory();
    costed_ = std::make_unique<SqlEngine>(db_.get());
    EngineOptions rule_opts;
    rule_opts.planner.mode = PlannerMode::kRuleBased;
    rule_ = std::make_unique<SqlEngine>(db_.get(), rule_opts);
    EngineOptions from_opts;
    from_opts.planner.mode = PlannerMode::kFromOrder;
    from_order_ = std::make_unique<SqlEngine>(db_.get(), from_opts);
    Seed(costed_.get());
    ASSERT_TRUE(costed_->Execute("ANALYZE").ok());
  }

  std::string Explain(SqlEngine* engine, const std::string& sql) {
    auto r = engine->Execute("EXPLAIN " + sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? r->explain_text : "";
  }

  // Runs `sql` in the three modes; the rows and their order must match.
  void ExpectSameOrderedRows(const std::string& sql) {
    auto want = from_order_->Execute(sql);
    ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    for (SqlEngine* engine : {rule_.get(), costed_.get()}) {
      auto got = engine->Execute(sql);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      EXPECT_EQ(Lines(*got), Lines(*want))
          << sql << "\n" << Explain(engine, sql);
    }
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlEngine> costed_;
  std::unique_ptr<SqlEngine> rule_;
  std::unique_ptr<SqlEngine> from_order_;
};

TEST_F(ComponentDedupeTest, DedupesEachComponentUnderTheCross) {
  const char* queries[] = {
      // Two joined components; the ORDER BY key n.id is not selected.
      "SELECT DISTINCT d.coll, t.value FROM doc d, node n, txt t, node m "
      "WHERE n.doc = d.id AND n.path = 1 AND t.node = m.id AND m.ord = 3 "
      "ORDER BY n.id, t.value",
      // Two single-relation components, a descending key.
      "SELECT DISTINCT n.path, m.ord FROM node n, node m "
      "WHERE n.id < 20 AND m.id < 30 ORDER BY n.path DESC, m.ord",
  };
  for (const char* sql : queries) {
    ExpectSameOrderedRows(sql);
    for (SqlEngine* engine : {rule_.get(), costed_.get()}) {
      std::string plan = Explain(engine, sql);
      EXPECT_EQ(Count(plan, "NestedLoopJoin"), 1u) << sql << "\n" << plan;
      EXPECT_EQ(Count(plan, "Distinct"), 3u) << sql << "\n" << plan;
    }
    std::string chain = Explain(from_order_.get(), sql);
    EXPECT_EQ(Count(chain, "Distinct"), 1u) << sql << "\n" << chain;
  }
  // The sort key survives the narrowing of its component.
  std::string plan = Explain(rule_.get(), queries[0]);
  size_t project = plan.find("Project [n.id, d.coll]");
  EXPECT_NE(project, std::string::npos) << plan;
  EXPECT_LT(plan.find("Sort by n.id"), project) << plan;
}

TEST_F(ComponentDedupeTest, UnreadComponentIsAnExistenceTest) {
  // txt is read by nothing above the join: one row of it decides whether
  // the doc side is returned at all.
  const std::string hit =
      "SELECT DISTINCT d.coll FROM doc d, txt t "
      "WHERE CONTAINS(t.value, 'token7') ORDER BY d.coll";
  const std::string miss =
      "SELECT DISTINCT d.coll FROM doc d, txt t "
      "WHERE CONTAINS(t.value, 'absent') ORDER BY d.coll";
  ExpectSameOrderedRows(hit);
  ExpectSameOrderedRows(miss);
  for (SqlEngine* engine : {rule_.get(), costed_.get()}) {
    auto ran = engine->Execute("EXPLAIN ANALYZE " + hit);
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    EXPECT_NE(ran->explain_text.find("Limit 1 "), std::string::npos)
        << ran->explain_text;
    EXPECT_NE(ran->explain_text.find("actual rows=1 "), std::string::npos)
        << ran->explain_text;
    auto rows = engine->Execute(hit);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows.size(), 3u);  // c0, c1, c2
    auto none = engine->Execute(miss);
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none->rows.empty());
  }
}

TEST_F(ComponentDedupeTest, OtherShapesKeepTheirAnswers) {
  // An Aggregate counts rows, so DISTINCT over GROUP BY crosses undeduped
  // components, and so does a SELECT without DISTINCT. A LIMIT above
  // DISTINCT only truncates the deduplicated stream.
  const char* plain[] = {
      "SELECT DISTINCT COUNT(*) FROM doc d, node n WHERE n.path = 2 "
      "GROUP BY d.coll",
      "SELECT d.coll, n.ord FROM doc d, node n WHERE d.id < 3 AND "
      "n.path = 4 ORDER BY d.id, n.id",
  };
  for (const char* sql : plain) {
    ExpectSameOrderedRows(sql);
    for (SqlEngine* engine : {rule_.get(), costed_.get()}) {
      std::string plan = Explain(engine, sql);
      EXPECT_LE(Count(plan, "Distinct"), 1u) << sql << "\n" << plan;
    }
  }
  const std::string limited =
      "SELECT DISTINCT d.coll, n.ord FROM doc d, node n WHERE n.path = 2 "
      "ORDER BY d.coll, n.ord LIMIT 5 OFFSET 2";
  ExpectSameOrderedRows(limited);
  EXPECT_EQ(Count(Explain(rule_.get(), limited), "Distinct"), 3u);
}

TEST_F(ComponentDedupeTest, CostedCrossCarriesEstimates) {
  for (const char* sql :
       {"SELECT DISTINCT n.path, m.ord FROM node n, node m "
        "WHERE n.id < 20 AND m.id < 30",
        "SELECT n.id, t.value FROM node n, txt t WHERE n.path = 1"}) {
    std::string plan = Explain(costed_.get(), sql);
    size_t cross = plan.find("NestedLoopJoin");
    ASSERT_NE(cross, std::string::npos) << plan;
    std::string line = plan.substr(cross, plan.find('\n', cross) - cross);
    EXPECT_NE(line.find("(est rows="), std::string::npos) << plan;
  }
}

// sql.exec.values_materialized sums rows x width over what the
// materializing operators hold. On two 4-row tables with two distinct
// rows each: the FROM-order chain holds b (4 x 1) as the nested loop's
// inner side, all 16 pairs (16 x 3) for the Sort and the 4 answers (4 x 2)
// in the Distinct: 60. Deduplicating each side first holds a's 2 distinct
// rows (2 x 2), b's 2 (2 x 1 in its Distinct, 2 x 1 as the inner side),
// 4 pairs for the Sort (4 x 3) and the 4 answers: 28.
TEST(ValuesMaterializedTest, CountsWhatOperatorsHold) {
  auto db = Database::OpenInMemory();
  SqlEngine engine(db.get());
  EngineOptions from_opts;
  from_opts.planner.mode = PlannerMode::kFromOrder;
  SqlEngine from_order(db.get(), from_opts);
  for (const char* sql :
       {"CREATE TABLE a (k INT, v INT)", "CREATE TABLE b (w INT)",
        "INSERT INTO a VALUES (1, 10), (1, 10), (1, 10), (2, 20)",
        "INSERT INTO b VALUES (5), (5), (5), (6)"}) {
    ASSERT_TRUE(engine.Execute(sql).ok()) << sql;
  }
  common::Counter* values = common::MetricsRegistry::Global().GetCounter(
      "sql.exec.values_materialized");
  const std::string sql =
      "SELECT DISTINCT a.v, b.w FROM a, b ORDER BY a.k";
  auto held = [&](SqlEngine* e) {
    uint64_t before = values->Value();
    auto r = e->Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), 4u);
    return values->Value() - before;
  };
  EXPECT_EQ(held(&from_order), 60u);
  EXPECT_EQ(held(&engine), 28u);
  auto stats = engine.Execute("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->explain_text.find("sql_exec_values_materialized"),
            std::string::npos);
}

class StatsRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test and process: concurrent ctest processes must not share
    // it (under ASan every process gets the same fixture address).
    const auto* test = testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir() + "/xq_stats_recovery_" +
           test->test_suite_name() + "." + test->name() + "." +
           std::to_string(getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(StatsRecoveryTest, AnalyzeSurvivesCrashViaWalReplay) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    SqlEngine engine(db->get());
    Seed(&engine);
    ASSERT_TRUE(engine.Execute("ANALYZE").ok());
    // Snapshot writes fail deterministically (the XOMATIQ_FAULTS
    // db.snapshot.write point), so recovery must come from the WAL alone.
    FaultConfig config;
    config.policy = FaultPolicy::kAlways;
    FaultInjector::Global().Arm("db.snapshot.write", config);
    EXPECT_FALSE((*db)->Checkpoint().ok());
    // No clean shutdown: the Database object is simply dropped.
  }
  FaultInjector::Global().Reset();

  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_NE((*db)->StatsFor("node"), nullptr);
  EXPECT_EQ((*db)->StatsFor("node")->row_count, 240u);
  SqlEngine engine(db->get());
  auto plan = engine.Execute("EXPLAIN SELECT id FROM node WHERE id = 7");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->explain_text.find("est rows="), std::string::npos)
      << plan->explain_text;
}

TEST_F(StatsRecoveryTest, AnalyzeSurvivesCheckpointedRestart) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    SqlEngine engine(db->get());
    Seed(&engine);
    ASSERT_TRUE(engine.Execute("ANALYZE").ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_NE((*db)->StatsFor("txt"), nullptr);
  EXPECT_EQ((*db)->StatsFor("txt")->row_count, 240u);
  SqlEngine engine(db->get());
  auto plan = engine.Execute(
      "EXPLAIN SELECT t.value FROM txt t, node n WHERE t.node = n.id");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->explain_text.find("est rows="), std::string::npos)
      << plan->explain_text;
}

}  // namespace
}  // namespace xomatiq::sql
