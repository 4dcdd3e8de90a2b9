#include "sql/expr_eval.h"

#include <gtest/gtest.h>

#include "sql/compiled_expr.h"
#include "sql/parser.h"

namespace xomatiq::sql {
namespace {

using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

class ExprEvalTest : public ::testing::Test {
 protected:
  ExprEvalTest()
      : schema_({{"i", ValueType::kInt, false},
                 {"d", ValueType::kDouble, false},
                 {"s", ValueType::kText, false},
                 {"n", ValueType::kInt, false}}) {}

  // Binds and compiles `text`, then evaluates it against `tuple`.
  common::Result<Value> TryEval(const std::string& text, const Tuple& tuple) {
    auto expr = ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << text << ": " << expr.status().ToString();
    if (!expr.ok()) return expr.status();
    XQ_RETURN_IF_ERROR(Bind(expr->get(), schema_));
    XQ_ASSIGN_OR_RETURN(CompiledExpr prog, CompiledExpr::Compile(**expr));
    EvalScratch scratch;
    return prog.EvalRow(tuple, &scratch);
  }

  // Evaluates `text` against (i=10, d=2.5, s="hello world", n=NULL).
  Value Eval(const std::string& text) {
    Tuple tuple{Value::Int(10), Value::Double(2.5),
                Value::Text("hello world"), Value::Null()};
    auto result = TryEval(text, tuple);
    EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
    return result.ok() ? *result : Value::Null();
  }

  Schema schema_;
};

TEST_F(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("i + 5").AsInt(), 15);
  EXPECT_EQ(Eval("i * 2 - 3").AsInt(), 17);
  EXPECT_EQ(Eval("i / 3").AsInt(), 3);  // integer division
  EXPECT_EQ(Eval("i % 3").AsInt(), 1);
  EXPECT_DOUBLE_EQ(Eval("d * 2").AsDouble(), 5.0);
  EXPECT_DOUBLE_EQ(Eval("i / 4.0").AsDouble(), 2.5);
  EXPECT_EQ(Eval("-i").AsInt(), -10);
}

TEST_F(ExprEvalTest, DivisionByZeroIsError) {
  Tuple tuple{Value::Int(10), Value::Double(2.5), Value::Text("x"),
              Value::Null()};
  auto result = TryEval("i / 0", tuple);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("division by zero"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(ExprEvalTest, Comparisons) {
  EXPECT_EQ(Eval("i = 10").AsInt(), 1);
  EXPECT_EQ(Eval("i != 10").AsInt(), 0);
  EXPECT_EQ(Eval("i < 11").AsInt(), 1);
  EXPECT_EQ(Eval("d >= 2.5").AsInt(), 1);
  EXPECT_EQ(Eval("s = 'hello world'").AsInt(), 1);
  EXPECT_EQ(Eval("i = d").AsInt(), 0);  // 10 vs 2.5
}

TEST_F(ExprEvalTest, NullPropagation) {
  EXPECT_TRUE(Eval("n = 1").is_null());
  EXPECT_TRUE(Eval("n + 1").is_null());
  EXPECT_TRUE(Eval("NOT (n = 1)").is_null());
  EXPECT_EQ(Eval("n IS NULL").AsInt(), 1);
  EXPECT_EQ(Eval("n IS NOT NULL").AsInt(), 0);
  EXPECT_EQ(Eval("i IS NULL").AsInt(), 0);
}

TEST_F(ExprEvalTest, ThreeValuedLogic) {
  // NULL AND false = false; NULL AND true = NULL.
  EXPECT_EQ(Eval("(n = 1) AND (i = 99)").AsInt(), 0);
  EXPECT_TRUE(Eval("(n = 1) AND (i = 10)").is_null());
  // NULL OR true = true; NULL OR false = NULL.
  EXPECT_EQ(Eval("(n = 1) OR (i = 10)").AsInt(), 1);
  EXPECT_TRUE(Eval("(n = 1) OR (i = 99)").is_null());
}

TEST_F(ExprEvalTest, Like) {
  EXPECT_EQ(Eval("s LIKE 'hello%'").AsInt(), 1);
  EXPECT_EQ(Eval("s LIKE '%world'").AsInt(), 1);
  EXPECT_EQ(Eval("s LIKE 'h_llo world'").AsInt(), 1);
  EXPECT_EQ(Eval("s LIKE 'world'").AsInt(), 0);
  EXPECT_EQ(Eval("s NOT LIKE 'x%'").AsInt(), 1);
}

TEST_F(ExprEvalTest, Contains) {
  EXPECT_EQ(Eval("CONTAINS(s, 'hello')").AsInt(), 1);
  EXPECT_EQ(Eval("CONTAINS(s, 'WORLD hello')").AsInt(), 1);  // AND, any case
  EXPECT_EQ(Eval("CONTAINS(s, 'hell')").AsInt(), 0);  // token, not substring
  EXPECT_EQ(Eval("CONTAINS(s, 'missing')").AsInt(), 0);
}

TEST_F(ExprEvalTest, BetweenAndIn) {
  EXPECT_EQ(Eval("i BETWEEN 5 AND 15").AsInt(), 1);
  EXPECT_EQ(Eval("i NOT BETWEEN 5 AND 15").AsInt(), 0);
  EXPECT_EQ(Eval("i BETWEEN 11 AND 15").AsInt(), 0);
  EXPECT_EQ(Eval("i IN (1, 10, 100)").AsInt(), 1);
  EXPECT_EQ(Eval("i NOT IN (1, 2)").AsInt(), 1);
  // IN with NULL member: unknown unless matched.
  EXPECT_TRUE(Eval("i IN (1, n)").is_null());
  EXPECT_EQ(Eval("i IN (10, n)").AsInt(), 1);
}

TEST_F(ExprEvalTest, ScalarFunctions) {
  EXPECT_EQ(Eval("LOWER('ABC')").AsText(), "abc");
  EXPECT_EQ(Eval("UPPER(s)").AsText(), "HELLO WORLD");
  EXPECT_EQ(Eval("LENGTH(s)").AsInt(), 11);
  EXPECT_TRUE(Eval("LOWER(n)").is_null());
}

TEST_F(ExprEvalTest, Concat) {
  EXPECT_EQ(Eval("s || '!'").AsText(), "hello world!");
  EXPECT_EQ(Eval("i || s").AsText(), "10hello world");
}

TEST_F(ExprEvalTest, BindRejectsUnknownColumns) {
  auto expr = ParseExpression("missing = 1");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(Bind(expr->get(), schema_).ok());
}

TEST_F(ExprEvalTest, BindRejectsAggregatesByDefault) {
  auto expr = ParseExpression("COUNT(*) > 1");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(Bind(expr->get(), schema_).ok());
  EXPECT_TRUE(Bind(expr->get(), schema_, /*allow_aggregates=*/true).ok());
}

TEST(MatchLikeTest, EdgeCases) {
  EXPECT_TRUE(MatchLike("", ""));
  EXPECT_TRUE(MatchLike("", "%"));
  EXPECT_FALSE(MatchLike("", "_"));
  EXPECT_TRUE(MatchLike("abc", "%%%"));
  EXPECT_TRUE(MatchLike("abcabc", "%abc"));
  EXPECT_TRUE(MatchLike("aXbXc", "a%b%c"));
  EXPECT_FALSE(MatchLike("ab", "a%bc"));
  EXPECT_TRUE(MatchLike("a%b", "a%b"));  // literal match via wildcard
}

TEST(InferTypeTest, Basics) {
  rel::Schema schema({{"i", ValueType::kInt, false},
                      {"s", ValueType::kText, false}});
  auto check = [&](const std::string& text, ValueType want) {
    auto e = ParseExpression(text);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(InferType(**e, schema), want) << text;
  };
  check("i + 1", ValueType::kInt);
  check("i + 1.5", ValueType::kDouble);
  check("i = 1", ValueType::kInt);
  check("s || 'x'", ValueType::kText);
  check("COUNT(*)", ValueType::kInt);
  check("AVG(i)", ValueType::kDouble);
  check("MIN(s)", ValueType::kText);
  check("LENGTH(s)", ValueType::kInt);
}

TEST(ContainsAggregateTest, DetectsNested) {
  auto with = ParseExpression("1 + COUNT(*)");
  auto without = ParseExpression("1 + i");
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_TRUE(ContainsAggregate(**with));
  EXPECT_FALSE(ContainsAggregate(**without));
}

}  // namespace
}  // namespace xomatiq::sql
