#ifndef XOMATIQ_SQL_LOGICAL_PLAN_H_
#define XOMATIQ_SQL_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/database.h"
#include "sql/ast.h"
#include "sql/plan.h"

namespace xomatiq::sql {

// Logical plan IR. The Binder produces it from a SelectStmt; the rewrite
// pass (RewriteLogicalPlan) folds constants and pushes single-table
// predicates into the Get leaves; the physical planner (physical_planner.h)
// lowers it to a PlanNode tree.
//
// Shape invariant: the tree is a chain of unary operators
// (Limit/Distinct/Sort/Project/Filter/Aggregate) ending in one n-ary kJoin
// whose children are kGet leaves. kJoin is unordered — it carries the full
// cross-relation conjunct pool and leaves join order, join methods and
// access paths to the physical planner (the same role Calcite's MultiJoin
// plays in front of its join-order rules).
enum class LogicalKind {
  kGet,        // base table access; `pushed` = single-table conjuncts
  kJoin,       // n-ary join set with a shared conjunct pool
  kFilter,     // predicate above child (HAVING, residuals)
  kProject,
  kAggregate,
  kSort,
  kLimit,
  kDistinct,
};

std::string_view LogicalKindName(LogicalKind kind);

struct LogicalOp;
using LogicalPtr = std::unique_ptr<LogicalOp>;

struct LogicalOp {
  LogicalKind kind = LogicalKind::kGet;
  // Output schema. For kJoin: children concatenated in FROM order (the
  // physical join order may differ; the Project above re-establishes
  // output column order by name).
  rel::Schema schema;
  std::vector<LogicalPtr> children;

  // kGet.
  std::string table;
  std::string alias;
  std::vector<ExprPtr> pushed;  // single-table conjuncts (moved by rewrite)

  // kJoin: conjuncts spanning two or more children (after rewrite).
  std::vector<ExprPtr> conjuncts;

  // kFilter.
  ExprPtr predicate;

  // kProject.
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;

  // kAggregate (schema = _grp0.._grpN-1, _agg0.._aggM-1).
  std::vector<ExprPtr> group_exprs;
  std::vector<AggSpec> aggs;

  // kSort.
  std::vector<SortKey> keys;

  // kLimit.
  int64_t limit = -1;
  int64_t offset = 0;

  // Debug / test rendering of the IR tree.
  std::string ToString(int indent = 0) const;
};

// Binds a SELECT AST into the logical IR: resolves tables, validates that
// every predicate binds against the joined schema, rewrites aggregate
// expressions to _grpN/_aggN references, and types every derived column.
// Every planning error about the statement's meaning comes from here.
class Binder {
 public:
  explicit Binder(rel::Database* db) : db_(db) {}

  common::Result<LogicalPtr> BindSelect(const SelectStmt& stmt);

 private:
  rel::Database* db_;
};

// The rewrite pass: constant-folds every expression, then pushes each
// kJoin conjunct that references exactly one child Get down into that
// Get's `pushed` list.
common::Status RewriteLogicalPlan(LogicalOp* root);

}  // namespace xomatiq::sql

#endif  // XOMATIQ_SQL_LOGICAL_PLAN_H_
