#include "sql/engine.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace xomatiq::sql {
namespace {

using rel::Database;
using rel::Tuple;
using rel::Value;

TEST(SqlEngineTest, DdlLifecycle) {
  auto db = Database::OpenInMemory();
  SqlEngine engine(db.get());
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (id INT)").ok());
  ASSERT_TRUE(engine.Execute("CREATE INDEX i ON t (id)").ok());
  ASSERT_TRUE(engine.Execute("DROP INDEX i").ok());
  ASSERT_TRUE(engine.Execute("DROP TABLE t").ok());
  EXPECT_FALSE(engine.Execute("SELECT * FROM t").ok());
}

TEST(SqlEngineTest, ConstraintErrorsSurface) {
  auto db = Database::OpenInMemory();
  SqlEngine engine(db.get());
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (id INT NOT NULL)").ok());
  ASSERT_TRUE(engine.Execute("CREATE UNIQUE INDEX u ON t (id)").ok());
  ASSERT_TRUE(engine.Execute("INSERT INTO t VALUES (1)").ok());
  auto dup = engine.Execute("INSERT INTO t VALUES (1)");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), common::StatusCode::kConstraintViolation);
  EXPECT_FALSE(engine.Execute("INSERT INTO t VALUES (NULL)").ok());
}

TEST(SqlEngineTest, ExplainDoesNotExecute) {
  auto db = Database::OpenInMemory();
  SqlEngine engine(db.get());
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (id INT)").ok());
  ASSERT_TRUE(engine.Execute("INSERT INTO t VALUES (1)").ok());
  auto r = engine.Execute("EXPLAIN SELECT * FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
  EXPECT_FALSE(r->explain_text.empty());
}

// A caller that passes read_epoch holds a snapshot, which holds the DDL
// latch shared. A write statement would take the write latch under it, and
// DDL would then wait on this thread's own snapshot forever. Every write
// statement is refused instead; reads at the same epoch still run.
TEST(SqlEngineTest, WriteAtPinnedReadEpochIsRefused) {
  auto db = Database::OpenInMemory();
  SqlEngine engine(db.get());
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (id INT)").ok());
  ASSERT_TRUE(engine.Execute("INSERT INTO t VALUES (1)").ok());
  rel::Snapshot snap = db->BeginSnapshot();
  for (const char* sql :
       {"CREATE TABLE u (id INT)", "CREATE INDEX i ON t (id)", "DROP TABLE t",
        "INSERT INTO t VALUES (2)", "UPDATE t SET id = 3",
        "DELETE FROM t", "ANALYZE"}) {
    common::QueryRequest req = common::QueryRequest::Sql(sql);
    req.read_epoch = snap.epoch();
    auto r = engine.Execute(req);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), common::StatusCode::kInvalidArgument) << sql;
  }
  common::QueryRequest read = common::QueryRequest::Sql("SELECT id FROM t");
  read.read_epoch = snap.epoch();
  auto rows = engine.Execute(read);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt(), 1);
}

// Differential property suite: the same random query set must produce
// identical results on a database with the full index complement and on
// an index-free copy (SeqScan+Filter reference plans). This pins the
// planner's index paths against the straightforward semantics.
class IndexDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

std::string RowsToString(const std::vector<Tuple>& rows) {
  std::vector<std::string> lines;
  for (const Tuple& row : rows) {
    lines.push_back(rel::TupleToString(row));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

TEST_P(IndexDifferentialTest, IndexedAndUnindexedAgree) {
  common::Rng rng(GetParam());
  auto indexed = Database::OpenInMemory();
  auto plain = Database::OpenInMemory();
  SqlEngine eng_indexed(indexed.get());
  SqlEngine eng_plain(plain.get());

  const char* ddl =
      "CREATE TABLE r (a INT, b INT, c TEXT, d DOUBLE)";
  ASSERT_TRUE(eng_indexed.Execute(ddl).ok());
  ASSERT_TRUE(eng_plain.Execute(ddl).ok());
  ASSERT_TRUE(eng_indexed.Execute("CREATE INDEX r_a ON r (a)").ok());
  ASSERT_TRUE(
      eng_indexed.Execute("CREATE INDEX r_b ON r (b) USING HASH").ok());
  ASSERT_TRUE(
      eng_indexed.Execute("CREATE INDEX r_c ON r (c) USING INVERTED").ok());
  ASSERT_TRUE(eng_indexed.Execute("CREATE INDEX r_ab ON r (a, b)").ok());

  static const char* kWords[] = {"alpha", "beta", "gamma", "delta", "eps"};
  for (int i = 0; i < 300; ++i) {
    int64_t a = rng.UniformRange(0, 20);
    int64_t b = rng.UniformRange(0, 5);
    std::string c = std::string(kWords[rng.Uniform(5)]) + " " +
                    kWords[rng.Uniform(5)];
    std::string d = rng.Bernoulli(0.1)
                        ? "NULL"
                        : std::to_string(rng.NextDouble() * 10);
    std::string insert = "INSERT INTO r VALUES (" + std::to_string(a) +
                         ", " + std::to_string(b) + ", '" + c + "', " + d +
                         ")";
    ASSERT_TRUE(eng_indexed.Execute(insert).ok());
    ASSERT_TRUE(eng_plain.Execute(insert).ok());
  }

  std::vector<std::string> queries = {
      "SELECT a, b FROM r WHERE a = 7",
      "SELECT a FROM r WHERE a > 15",
      "SELECT a FROM r WHERE a BETWEEN 3 AND 6",
      "SELECT a, c FROM r WHERE b = 2 AND a = 4",
      "SELECT c FROM r WHERE CONTAINS(c, 'alpha')",
      "SELECT c FROM r WHERE CONTAINS(c, 'alpha beta')",
      "SELECT a FROM r WHERE a = 3 OR a = 4",
      "SELECT a, COUNT(*) FROM r GROUP BY a",
      "SELECT DISTINCT b FROM r",
      "SELECT x.a FROM r x, r y WHERE x.a = y.b AND y.a = 1",
      "SELECT a FROM r WHERE d IS NULL",
      "SELECT a FROM r WHERE c LIKE 'alpha%' AND a < 10",
      "SELECT MAX(d), MIN(a) FROM r WHERE b = 3",
  };
  for (const std::string& q : queries) {
    auto ri = eng_indexed.Execute(q);
    auto rp = eng_plain.Execute(q);
    ASSERT_TRUE(ri.ok()) << q << ": " << ri.status().ToString();
    ASSERT_TRUE(rp.ok()) << q << ": " << rp.status().ToString();
    EXPECT_EQ(RowsToString(ri->rows), RowsToString(rp->rows)) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace xomatiq::sql
