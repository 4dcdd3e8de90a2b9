#ifndef XOMATIQ_SQL_PLAN_H_
#define XOMATIQ_SQL_PLAN_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "relational/database.h"
#include "sql/ast.h"
#include "sql/compiled_expr.h"

namespace xomatiq::sql {

// EXPLAIN ANALYZE actuals for one operator, filled by the Executor when
// ExecutorOptions.collect_stats is on. Accumulation is single-threaded:
// parallel operators tally per-worker counts in thread-private slots and
// publish them here only after the fan-out joins.
struct OpStats {
  uint64_t rows_out = 0;     // rows this operator emitted downstream
  uint64_t batches = 0;      // RowBatches emitted
  uint64_t invocations = 0;  // times the operator pipeline was started
                             // (>1 for rescanned join inner sides)
  // Inclusive wall time of this operator's pipeline. The executor pushes
  // batches from the leaves up, so a node's time covers producing its
  // input AND everything downstream consuming its output; compare rows
  // across siblings, and read time top-down (root time = query time).
  uint64_t ns = 0;
  // Set when a parent Filter ran fused into this scan or join. A fused
  // scan's rows_out still counts the rows it produced before the
  // predicate; its other counters, and all of a fused join's, stay zero:
  // the work is credited to the Filter.
  bool fused = false;
  // Parallel operators: rows processed per worker slot (skew view).
  std::vector<uint64_t> partition_rows;
  // Parallel operators: work-stealing morsels this operator executed.
  uint64_t morsels = 0;

  void Clear() { *this = OpStats{}; }
};

enum class PlanKind {
  kSeqScan,        // full table scan
  kParallelSeqScan,// partitioned scan fanned across worker threads
  kIndexScan,      // btree/hash point or range access
  kKeywordScan,    // inverted-index posting fetch for CONTAINS
  kFilter,         // predicate
  kProject,        // expression list
  kNestedLoopJoin, // cross product + optional predicate
  kHashJoin,       // equi-join, build right / probe left
  kIndexNLJoin,    // outer stream + index lookup on inner table
  kSort,
  kLimit,
  kAggregate,      // group by + aggregate functions
  kDistinct,
};

// Operator display name ("SeqScan", "HashJoin", ...), shared by EXPLAIN
// rendering and the benches' per-operator metric labels.
std::string_view PlanKindName(PlanKind kind);

struct SortKey {
  ExprPtr expr;  // bound to child schema
  bool desc = false;
};

struct AggSpec {
  AggFunc func = AggFunc::kCount;
  ExprPtr arg;  // null for COUNT(*)
};

// Physical plan node. Expressions stored on a node are bound against the
// node's child schema (for scans: the scan's own output schema).
struct PlanNode {
  PlanKind kind = PlanKind::kSeqScan;
  rel::Schema schema;  // output schema (alias-qualified column names)
  std::vector<std::unique_ptr<PlanNode>> children;

  // Scans and IndexNLJoin inner side.
  std::string table;
  std::string alias;
  const rel::IndexEntry* index = nullptr;

  // kIndexScan equality key (literals), one per leading index column.
  std::vector<rel::Value> eq_key;
  // kIndexScan btree range bounds on the first index column (optional).
  std::optional<rel::Value> lo;
  bool lo_inclusive = true;
  std::optional<rel::Value> hi;
  bool hi_inclusive = true;

  // kKeywordScan.
  std::string keyword;

  // kFilter / kNestedLoopJoin residual predicate.
  ExprPtr predicate;

  // kProject.
  std::vector<ExprPtr> project_exprs;

  // kHashJoin equi-key expressions (left bound to children[0] schema,
  // right bound to children[1] schema).
  std::vector<ExprPtr> left_keys;
  std::vector<ExprPtr> right_keys;

  // kIndexNLJoin: outer-side expressions producing the inner index key.
  std::vector<ExprPtr> outer_key_exprs;

  // kSort.
  std::vector<SortKey> sort_keys;

  // kLimit.
  int64_t limit = -1;   // -1 = unlimited
  int64_t offset = 0;

  // kAggregate.
  std::vector<ExprPtr> group_exprs;
  std::vector<AggSpec> aggs;

  // Planned worker count of a kParallelSeqScan, kHashJoin or kSort
  // (>= 2 when the planner chose to fan it out).
  int parallel_degree = 0;

  // Optimizer estimates, set only when the plan was costed (-1 = planned
  // by rules, which estimate nothing). EXPLAIN renders
  // "(est rows=R cost=C)" when present; EXPLAIN ANALYZE places it beside
  // the actuals so estimate-vs-actual drift is visible per operator.
  double est_rows = -1;
  double est_cost = -1;

  // Slot-bound expression programs compiled from the fields above when
  // Planner::PlanSelect returns the plan; the executor evaluates these.
  // The ExprPtr originals are kept for EXPLAIN.
  std::optional<CompiledExpr> predicate_prog;
  std::vector<CompiledExpr> project_progs;
  std::vector<CompiledExpr> left_key_progs;
  std::vector<CompiledExpr> right_key_progs;
  std::vector<CompiledExpr> outer_key_progs;
  std::vector<CompiledExpr> sort_key_progs;
  std::vector<CompiledExpr> group_progs;
  std::vector<std::optional<CompiledExpr>> agg_arg_progs;

  // Execution actuals (EXPLAIN ANALYZE). Mutable: the executor runs a
  // const plan, and stats are an execution-time record, not part of the
  // plan's logical identity.
  mutable OpStats stats;

  // Zeroes stats on this node and every descendant.
  void ClearStats() const;

  // Human-readable operator tree (EXPLAIN). EXPLAIN ANALYZE renders the
  // same tree through the same code path with `analyze` set, appending
  // per-operator actuals (rows/batches/time, parallel partition counts).
  std::string ToString(int indent = 0, bool analyze = false) const;
};

using PlanPtr = std::unique_ptr<PlanNode>;

}  // namespace xomatiq::sql

#endif  // XOMATIQ_SQL_PLAN_H_
