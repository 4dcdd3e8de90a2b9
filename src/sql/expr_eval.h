#ifndef XOMATIQ_SQL_EXPR_EVAL_H_
#define XOMATIQ_SQL_EXPR_EVAL_H_

#include <optional>

#include "common/result.h"
#include "relational/schema.h"
#include "sql/ast.h"

namespace xomatiq::sql {

// Resolves every kColumnRef in `e` against `schema`, filling bound_index.
// Rejects aggregates when `allow_aggregates` is false.
common::Status Bind(Expr* e, const rel::Schema& schema,
                    bool allow_aggregates = false);

// NULL-aware truthiness of a value; NULL -> nullopt. Booleans are INT
// 0/1. Inline: predicates test it once per row.
inline std::optional<bool> Truthiness(const rel::Value& v) {
  switch (v.type()) {
    case rel::ValueType::kNull:
      return std::nullopt;
    case rel::ValueType::kInt:
      return v.AsInt() != 0;
    case rel::ValueType::kDouble:
      return v.AsDouble() != 0;
    case rel::ValueType::kText:
      return !v.AsText().empty();
  }
  return std::nullopt;
}

// Scalar binary evaluation (comparison, arithmetic, concat) with SQL NULL
// propagation. kAnd/kOr are control flow, not scalar ops, and are rejected.
common::Result<rel::Value> EvalBinaryScalar(BinaryOp op, const rel::Value& l,
                                            const rel::Value& r);

// SQL LIKE with % (any run) and _ (any one char); case-sensitive.
bool MatchLike(std::string_view text, std::string_view pattern);

// CONTAINS keyword semantics: every keyword token occurs as a token of
// `text` (case-insensitive). Matches what InvertedIndex::LookupAll returns.
bool MatchContains(std::string_view text, std::string_view keywords);

// Infers the result type of a bound expression (for derived schemas).
rel::ValueType InferType(const Expr& e, const rel::Schema& schema);

// True when the expression tree contains an aggregate node.
bool ContainsAggregate(const Expr& e);

}  // namespace xomatiq::sql

#endif  // XOMATIQ_SQL_EXPR_EVAL_H_
