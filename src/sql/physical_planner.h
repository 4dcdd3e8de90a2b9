#ifndef XOMATIQ_SQL_PHYSICAL_PLANNER_H_
#define XOMATIQ_SQL_PHYSICAL_PLANNER_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "relational/database.h"
#include "sql/logical_plan.h"
#include "sql/plan.h"
#include "sql/planner.h"
#include "sql/stats.h"

namespace xomatiq::sql {

// Lowers a rewritten logical plan to a physical plan. Every SELECT goes
// through here; access-node and join-node construction, filter placement
// and the unary operator chain are shared. Three decisions follow one of
// two policies, chosen once per statement:
//
//   decision         costed (fresh statistics)      rules
//   access path      cheapest candidate             fixed preference
//   join order       DP up to dp_join_limit         seed, then first linked
//                    relations, greedy beyond       relation in FROM order
//   join method      cheapest of hash/INL/NL        INL > hash > NL
//   parallelism      priced per operator            big-input threshold
//
// Both policies pick from the same access-path menu and fill the same
// RelInfo / JoinStep structures. Costed plans carry est_rows/est_cost on
// every node (EXPLAIN prints them); rule plans carry none.
class PhysicalPlanner {
 public:
  // Joins over more relations than this plan by rules: the costed join
  // search keeps relation sets in 64-bit masks.
  static constexpr size_t kMaxCostedRelations = 63;

  // `costed` requires statistics for every base table.
  PhysicalPlanner(rel::Database* db, const PlannerOptions& options,
                  bool costed)
      : db_(db), options_(options), costed_(costed) {}

  common::Result<PlanPtr> Lower(const LogicalOp& root);

  // True when a costed join order differs from FROM order (feeds the
  // sql.opt.join_reorders counter).
  bool reordered() const { return reordered_; }

 private:
  struct RelInfo;
  struct JoinConjunct;
  struct JoinStep;
  struct JoinComponent;

  common::Result<PlanPtr> LowerOp(const LogicalOp& op);
  common::Result<PlanPtr> LowerJoin(const LogicalOp& join);
  common::Result<PlanPtr> BuildAccessPlan(const LogicalOp& get, RelInfo* rel);
  void ChooseAccess(const CostModel& cm, RelInfo* rel);
  // Join orders: components joined left-deep, then crossed in order.
  std::vector<JoinComponent> OrderByCost(
      const CostModel& cm, const std::vector<RelInfo>& rels,
      const std::vector<JoinConjunct>& jconjs);
  std::vector<JoinComponent> OrderByRule(
      const std::vector<RelInfo>& rels,
      const std::vector<JoinConjunct>& jconjs) const;

  rel::Database* db_;
  const PlannerOptions& options_;
  const bool costed_;
  bool reordered_ = false;
};

}  // namespace xomatiq::sql

#endif  // XOMATIQ_SQL_PHYSICAL_PLANNER_H_
