#ifndef XOMATIQ_SQL_PHYSICAL_PLANNER_H_
#define XOMATIQ_SQL_PHYSICAL_PLANNER_H_

#include <cstddef>
#include <optional>
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
//   join order       per component: DP up to        per component: seed,
//                    dp_join_limit relations,       then first linked
//                    greedy beyond                  relation in FROM order
//   join method      cheapest of hash/INL/NL        INL > hash > NL
//   parallelism      priced per operator            big-input threshold
//
// The join graph's connected components are found once, for both
// policies; each is ordered on its own and the components cross last, by
// nested loop (kFromOrder alone keeps one literal FROM-order chain). Under
// a DISTINCT root (a LIMIT may sit above it) with no Aggregate below it,
// each component is first narrowed to the columns read above the join and
// deduplicated; a component nothing above reads keeps one row. Both
// policies pick from the same access-path menu and fill the same RelInfo /
// JoinStep structures. Costed plans carry est_rows/est_cost on every node
// (EXPLAIN prints them); rule plans carry none.
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

  // True when the join order differs from FROM order (for costed plans it
  // feeds the sql.opt.join_reorders counter).
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
  // Left-deep join order of one connected component (`members`, ascending
  // relation indexes).
  JoinComponent OrderByCost(const CostModel& cm,
                            const std::vector<RelInfo>& rels,
                            const std::vector<JoinConjunct>& jconjs,
                            const std::vector<size_t>& members) const;
  JoinComponent OrderByRule(const std::vector<RelInfo>& rels,
                            const std::vector<JoinConjunct>& jconjs,
                            const std::vector<size_t>& members) const;
  // Narrows a component's plan to the columns in distinct_reads_ and
  // deduplicates it, or keeps one row when it holds none of them.
  common::Result<PlanPtr> DedupeComponent(PlanPtr part) const;

  rel::Database* db_;
  const PlannerOptions& options_;
  const bool costed_;
  bool reordered_ = false;
  // Set by Lower when the root is DISTINCT over Project/Sort/Filter nodes
  // only: the column references those nodes read from the join.
  std::optional<std::vector<const Expr*>> distinct_reads_;
};

}  // namespace xomatiq::sql

#endif  // XOMATIQ_SQL_PHYSICAL_PLANNER_H_
