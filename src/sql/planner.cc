#include "sql/planner.h"

#include <algorithm>
#include <memory>

#include "common/metrics.h"
#include "sql/logical_plan.h"
#include "sql/physical_planner.h"

namespace xomatiq::sql {

using common::Result;
using common::Status;

namespace {

Result<CompiledExpr> CompileOne(const ExprPtr& e) {
  return CompiledExpr::Compile(*e);
}

Status CompileList(const std::vector<ExprPtr>& exprs,
                   std::vector<CompiledExpr>* out) {
  out->clear();
  out->reserve(exprs.size());
  for (const ExprPtr& e : exprs) {
    XQ_ASSIGN_OR_RETURN(CompiledExpr prog, CompileOne(e));
    out->push_back(std::move(prog));
  }
  return Status::OK();
}

// Compiles every bound expression of `plan` (and its children) into the
// slot-bound programs the executor evaluates (plan->*_progs).
Status CompilePlanPrograms(PlanNode* plan) {
  if (plan->predicate) {
    XQ_ASSIGN_OR_RETURN(CompiledExpr prog, CompileOne(plan->predicate));
    plan->predicate_prog = std::move(prog);
  }
  XQ_RETURN_IF_ERROR(CompileList(plan->project_exprs, &plan->project_progs));
  XQ_RETURN_IF_ERROR(CompileList(plan->left_keys, &plan->left_key_progs));
  XQ_RETURN_IF_ERROR(CompileList(plan->right_keys, &plan->right_key_progs));
  XQ_RETURN_IF_ERROR(
      CompileList(plan->outer_key_exprs, &plan->outer_key_progs));
  XQ_RETURN_IF_ERROR(CompileList(plan->group_exprs, &plan->group_progs));
  plan->sort_key_progs.clear();
  plan->sort_key_progs.reserve(plan->sort_keys.size());
  for (const SortKey& sk : plan->sort_keys) {
    XQ_ASSIGN_OR_RETURN(CompiledExpr prog, CompileOne(sk.expr));
    plan->sort_key_progs.push_back(std::move(prog));
  }
  plan->agg_arg_progs.clear();
  plan->agg_arg_progs.reserve(plan->aggs.size());
  for (const AggSpec& spec : plan->aggs) {
    if (spec.arg == nullptr) {
      plan->agg_arg_progs.emplace_back();
    } else {
      XQ_ASSIGN_OR_RETURN(CompiledExpr prog, CompileOne(spec.arg));
      plan->agg_arg_progs.emplace_back(std::move(prog));
    }
  }
  for (const PlanPtr& child : plan->children) {
    XQ_RETURN_IF_ERROR(CompilePlanPrograms(child.get()));
  }
  return Status::OK();
}

}  // namespace

Result<PlanPtr> Planner::PlanSelect(const SelectStmt& stmt) {
  static common::Counter* rule_plans =
      common::MetricsRegistry::Global().GetCounter("sql.opt.rule_based_plans");
  static common::Counter* cost_plans =
      common::MetricsRegistry::Global().GetCounter("sql.opt.cost_based_plans");
  static common::Counter* reorders =
      common::MetricsRegistry::Global().GetCounter("sql.opt.join_reorders");
  Binder binder(db_);
  XQ_ASSIGN_OR_RETURN(LogicalPtr logical, binder.BindSelect(stmt));
  XQ_RETURN_IF_ERROR(RewriteLogicalPlan(logical.get()));
  const bool costed =
      options_.mode == PlannerMode::kAuto &&
      stmt.from.size() + stmt.joins.size() <=
          PhysicalPlanner::kMaxCostedRelations &&
      AllTablesFresh(stmt);
  PhysicalPlanner lowering(db_, options_, costed);
  XQ_ASSIGN_OR_RETURN(PlanPtr plan, lowering.Lower(*logical));
  XQ_RETURN_IF_ERROR(CompilePlanPrograms(plan.get()));
  if (!costed) {
    rule_plans->Inc();
  } else {
    cost_plans->Inc();
    if (lowering.reordered()) reorders->Inc();
  }
  return plan;
}

bool Planner::AllTablesFresh(const SelectStmt& stmt) const {
  std::vector<const TableRef*> refs;
  for (const TableRef& t : stmt.from) refs.push_back(&t);
  for (const JoinClause& j : stmt.joins) refs.push_back(&j.table);
  if (refs.empty()) return false;
  for (const TableRef* ref : refs) {
    std::shared_ptr<const rel::TableStats> stats = db_->StatsFor(ref->table);
    if (stats == nullptr) return false;
    uint64_t budget = std::max(
        options_.stats_stale_min,
        static_cast<uint64_t>(options_.stats_stale_fraction *
                              static_cast<double>(stats->row_count)));
    if (db_->MutationsSinceAnalyze(ref->table) > budget) return false;
  }
  return true;
}

}  // namespace xomatiq::sql
