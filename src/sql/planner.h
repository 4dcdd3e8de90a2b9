#ifndef XOMATIQ_SQL_PLANNER_H_
#define XOMATIQ_SQL_PLANNER_H_

#include "common/result.h"
#include "relational/database.h"
#include "sql/plan.h"

namespace xomatiq::sql {

// Which policy PlanSelect's physical lowering follows (physical_planner.h).
enum class PlannerMode {
  // Costed when every referenced table has fresh statistics (see the
  // staleness knobs below) and the join has at most
  // PhysicalPlanner::kMaxCostedRelations relations; rules otherwise.
  kAuto,
  // Always the rules.
  kRuleBased,
  // The rules with join reordering disabled: tables join in literal FROM
  // order. The differential tests and bench_optimizer use this as the
  // worst-case baseline the optimizer is measured against.
  kFromOrder,
};

// Planner tuning knobs.
struct PlannerOptions {
  // A filtered sequential scan over a table with at least this many slots
  // may become a kParallelSeqScan; the rules also annotate hash joins and
  // sorts over such a scan. Defaults high enough that
  // unit-test-sized tables keep their SeqScan plans.
  size_t parallel_scan_threshold = 1 << 16;
  // Worker count for parallel scans: 0 = hardware concurrency. Parallel
  // scans are only chosen when the effective degree is >= 2.
  int parallel_degree = 0;

  PlannerMode mode = PlannerMode::kAuto;
  // Statistics are "fresh" while the table's mutations since its last
  // ANALYZE stay within max(stats_stale_min, stats_stale_fraction * rows).
  uint64_t stats_stale_min = 64;
  double stats_stale_fraction = 0.2;
  // Joins of up to this many relations get exact DP join-order search over
  // left-deep trees; larger joins switch to greedy cheapest-extension.
  size_t dp_join_limit = 10;
};

// Query planner. Every SELECT takes one pipeline: the Binder lowers it to
// the logical IR (logical_plan.h), RewriteLogicalPlan folds constants and
// pushes single-table predicates down, PhysicalPlanner chooses access
// paths, join order and join methods by cost or by rules, and
// CompilePlanPrograms compiles its expressions.
//
// This is the "meticulous analysis of query plans" surface from §3.2 of
// the paper: EXPLAIN prints the chosen plan (with estimates when costed)
// and bench_index_ablation / bench_optimizer measure the impact of index
// and join-order choices.
class Planner {
 public:
  explicit Planner(rel::Database* db, PlannerOptions options = {})
      : db_(db), options_(options) {}

  common::Result<PlanPtr> PlanSelect(const SelectStmt& stmt);

  PlannerOptions& options() { return options_; }

 private:
  // True when every table referenced by `stmt` has statistics within the
  // staleness bound.
  bool AllTablesFresh(const SelectStmt& stmt) const;

  rel::Database* db_;
  PlannerOptions options_;
};

}  // namespace xomatiq::sql

#endif  // XOMATIQ_SQL_PLANNER_H_
