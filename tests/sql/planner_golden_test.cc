// Golden-plan regression suite for the cost-based optimizer.
//
// Two invariants are pinned across a fixed set of ~20 statements:
//
//   1. Without statistics, the kAuto planner must produce byte-identical
//      EXPLAIN output to an explicitly rule-based engine — ANALYZE is
//      strictly opt-in, and merely shipping the optimizer must not change
//      a single plan for unanalyzed tables.
//   2. With statistics, every plan carries (est rows=... cost=...)
//      annotations, is deterministic, and matches per-statement structural
//      expectations (chosen access paths, join methods, reordering).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "sql/engine.h"

namespace xomatiq::sql {
namespace {

using rel::Database;

// The regression set. `costed_expect` lists substrings the post-ANALYZE
// plan must contain (empty = only the generic estimate checks apply).
struct GoldenCase {
  const char* sql;
  std::vector<const char*> costed_expect;
};

const std::vector<GoldenCase>& Cases() {
  static const std::vector<GoldenCase> cases = {
      {"SELECT id FROM node WHERE id = 7", {"IndexScan node USING node_id"}},
      {"SELECT id FROM node WHERE path = 1",
       {"IndexScan node USING node_path"}},
      {"SELECT id FROM node WHERE path > 1",
       {"IndexScan node USING node_path", "> 1"}},
      {"SELECT id FROM node WHERE path >= 1 AND path < 3",
       {"IndexScan node USING node_path"}},
      {"SELECT id FROM node WHERE ord = 2", {"SeqScan node", "Filter"}},
      {"SELECT value FROM txt WHERE CONTAINS(value, 'token3')",
       {"KeywordScan txt USING txt_kw"}},
      {"SELECT t.value FROM txt t, node n WHERE t.node = n.id", {}},
      {"SELECT n.id FROM node n, node m WHERE n.ord = m.ord", {"HashJoin"}},
      {"SELECT n.id FROM node n, txt t LIMIT 1",
       {"NestedLoopJoin", "Limit 1"}},
      {"SELECT doc, COUNT(*) FROM node GROUP BY doc HAVING COUNT(*) > 2",
       {"Aggregate", "Filter"}},
      {"SELECT id FROM node ORDER BY ord", {"Sort"}},
      {"SELECT DISTINCT doc FROM node", {"Distinct"}},
      {"SELECT id FROM node WHERE id = 3 AND ord = 1",
       {"IndexScan node USING node_id"}},
      {"SELECT id FROM node WHERE id IN (1, 2, 3)", {}},
      {"SELECT id FROM node WHERE id = 1 OR id = 2", {}},
      {"SELECT * FROM doc", {"SeqScan doc"}},
      {"SELECT d.coll, n.id FROM doc d, node n "
       "WHERE n.doc = d.id AND d.coll = 'c1'",
       {}},
      {"SELECT n.id FROM doc d, node n, txt t "
       "WHERE n.doc = d.id AND t.node = n.id",
       {}},
      {"SELECT COUNT(*) FROM node", {"Aggregate"}},
      {"SELECT id + 1 AS shifted FROM node ORDER BY shifted LIMIT 5",
       {"Sort", "Limit 5"}},
      {"SELECT n.id FROM node n, txt t "
       "WHERE t.node = n.id AND CONTAINS(t.value, 'token7')",
       {}},
      {"SELECT id FROM node WHERE 1 = 1", {}},
  };
  return cases;
}

class PlannerGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto_db_ = Database::OpenInMemory();
    rule_db_ = Database::OpenInMemory();
    auto_engine_ = std::make_unique<SqlEngine>(auto_db_.get());
    EngineOptions rule_opts;
    rule_opts.planner.mode = PlannerMode::kRuleBased;
    rule_engine_ = std::make_unique<SqlEngine>(rule_db_.get(), rule_opts);
    Seed(auto_engine_.get());
    Seed(rule_engine_.get());
  }

  // Warehouse-shaped catalog with three tables of very different sizes,
  // so join-order decisions have something to bite on.
  void Seed(SqlEngine* engine) {
    Run(engine, "CREATE TABLE doc (id INT, coll TEXT)");
    Run(engine, "CREATE TABLE node (doc INT, id INT, path INT, ord INT)");
    Run(engine, "CREATE TABLE txt (node INT, value TEXT)");
    Run(engine, "CREATE INDEX doc_id ON doc (id) USING HASH");
    Run(engine, "CREATE INDEX node_id ON node (id) USING HASH");
    Run(engine, "CREATE INDEX node_path ON node (path)");
    Run(engine, "CREATE INDEX node_doc ON node (doc)");
    Run(engine, "CREATE INDEX txt_node ON txt (node) USING HASH");
    Run(engine, "CREATE INDEX txt_kw ON txt (value) USING INVERTED");
    for (int i = 0; i < 8; ++i) {
      Run(engine, "INSERT INTO doc VALUES (" + std::to_string(i) + ", 'c" +
                      std::to_string(i % 3) + "')");
    }
    std::string nodes = "INSERT INTO node VALUES ";
    std::string txts = "INSERT INTO txt VALUES ";
    for (int i = 0; i < 120; ++i) {
      if (i > 0) {
        nodes += ", ";
        txts += ", ";
      }
      nodes += "(" + std::to_string(i % 8) + ", " + std::to_string(i) + ", " +
               std::to_string(i % 5) + ", " + std::to_string(i % 7) + ")";
      txts += "(" + std::to_string(i) + ", 'value token" +
              std::to_string(i % 30) + "')";
    }
    Run(engine, nodes);
    Run(engine, txts);
  }

  void Run(SqlEngine* engine, const std::string& sql) {
    auto r = engine->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }

  std::string Explain(SqlEngine* engine, const std::string& sql) {
    auto r = engine->Execute("EXPLAIN " + sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? r->explain_text : "";
  }

  void AnalyzeAll() { Run(auto_engine_.get(), "ANALYZE"); }

  std::unique_ptr<Database> auto_db_;
  std::unique_ptr<Database> rule_db_;
  std::unique_ptr<SqlEngine> auto_engine_;
  std::unique_ptr<SqlEngine> rule_engine_;
};

TEST_F(PlannerGoldenTest, UnanalyzedPlansAreByteIdenticalToRuleBased) {
  for (const GoldenCase& c : Cases()) {
    std::string auto_plan = Explain(auto_engine_.get(), c.sql);
    std::string rule_plan = Explain(rule_engine_.get(), c.sql);
    EXPECT_EQ(auto_plan, rule_plan) << c.sql;
    EXPECT_EQ(auto_plan.find("est rows="), std::string::npos)
        << c.sql << "\n"
        << auto_plan;
  }
}

TEST_F(PlannerGoldenTest, AnalyzedPlansCarryEstimatesAndAreDeterministic) {
  AnalyzeAll();
  for (const GoldenCase& c : Cases()) {
    std::string plan = Explain(auto_engine_.get(), c.sql);
    EXPECT_NE(plan.find("(est rows="), std::string::npos)
        << c.sql << "\n"
        << plan;
    EXPECT_NE(plan.find("cost="), std::string::npos) << c.sql << "\n" << plan;
    EXPECT_EQ(plan, Explain(auto_engine_.get(), c.sql)) << c.sql;
    for (const char* expect : c.costed_expect) {
      EXPECT_NE(plan.find(expect), std::string::npos)
          << c.sql << " expected '" << expect << "' in:\n"
          << plan;
    }
  }
}

TEST_F(PlannerGoldenTest, WorstFromOrderIsReordered) {
  AnalyzeAll();
  common::Counter* reorders =
      common::MetricsRegistry::Global().GetCounter("sql.opt.join_reorders");
  uint64_t before = reorders->Value();
  // FROM lists the two large tables first; the single selected doc row
  // should lead the join instead.
  std::string plan = Explain(
      auto_engine_.get(),
      "SELECT n.id FROM node n, txt t, doc d "
      "WHERE t.node = n.id AND n.doc = d.id AND d.id = 3");
  EXPECT_NE(plan.find("(est rows="), std::string::npos) << plan;
  EXPECT_GT(reorders->Value(), before) << plan;
}

TEST_F(PlannerGoldenTest, StaleStatsFallBackToRuleBased) {
  AnalyzeAll();
  ASSERT_NE(Explain(auto_engine_.get(), "SELECT id FROM node WHERE id = 7")
                .find("est rows="),
            std::string::npos);
  // Exceed the staleness budget (max(64, 0.2 * 120) = 64 mutations).
  for (int i = 0; i < 65; ++i) {
    Run(auto_engine_.get(),
        "INSERT INTO node VALUES (0, " + std::to_string(1000 + i) + ", 0, 0)");
  }
  std::string stale = Explain(auto_engine_.get(),
                              "SELECT id FROM node WHERE id = 7");
  EXPECT_EQ(stale.find("est rows="), std::string::npos) << stale;
  // Re-ANALYZE restores cost-based planning.
  Run(auto_engine_.get(), "ANALYZE node");
  std::string fresh = Explain(auto_engine_.get(),
                              "SELECT id FROM node WHERE id = 7");
  EXPECT_NE(fresh.find("est rows="), std::string::npos) << fresh;
}

TEST_F(PlannerGoldenTest, FromOrderModeDisablesGreedyReordering) {
  // node and txt connect via t.node = n.id; m only connects through txt.
  // Greedy rule-based ordering chains n -> t -> m; kFromOrder must take
  // the literal (and here cross-product) FROM order.
  const std::string sql =
      "SELECT n.id FROM node n, node m, txt t "
      "WHERE t.node = n.id AND t.node = m.ord";
  std::string greedy = Explain(rule_engine_.get(), sql);
  EXPECT_EQ(greedy.find("NestedLoopJoin"), std::string::npos) << greedy;

  EngineOptions opts;
  opts.planner.mode = PlannerMode::kFromOrder;
  SqlEngine from_order(rule_db_.get(), opts);
  auto r = from_order.Execute("EXPLAIN " + sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->explain_text.find("NestedLoopJoin"), std::string::npos)
      << r->explain_text;
}

TEST_F(PlannerGoldenTest, AnalyzeStatementReportsPerTableCounts) {
  auto all = auto_engine_->Execute("ANALYZE");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->rows.size(), 3u);
  auto one = auto_engine_->Execute("ANALYZE node");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_EQ(one->rows.size(), 1u);
  EXPECT_EQ(one->rows[0][0].AsText(), "node");
  EXPECT_EQ(one->rows[0][1].AsInt(), 120);
  auto missing = auto_engine_->Execute("ANALYZE ghost");
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace xomatiq::sql
