#include "sql/physical_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>

#include "sql/expr_eval.h"
#include "sql/rewriter.h"

namespace xomatiq::sql {

using common::Result;
using common::Status;
using rel::IndexEntry;
using rel::IndexKind;
using rel::Schema;
using rel::TableStats;
using rel::Value;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

int Popcount(uint64_t v) {
  int n = 0;
  while (v != 0) {
    v &= v - 1;
    ++n;
  }
  return n;
}

void CollectRefs(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kColumnRef) {
    out->push_back(&e);
    return;
  }
  if (e.left) CollectRefs(*e.left, out);
  if (e.right) CollectRefs(*e.right, out);
  if (e.extra) CollectRefs(*e.extra, out);
  for (const ExprPtr& item : e.list) CollectRefs(*item, out);
}

// Degree the planner may hand a parallel operator: the configured override
// or hardware concurrency (asked once per process); 0 = parallelism
// unavailable, stay serial.
int ConfiguredDegree(const PlannerOptions& options) {
  static const int hardware =
      static_cast<int>(std::thread::hardware_concurrency());
  int degree = options.parallel_degree > 0 ? options.parallel_degree
                                           : hardware;
  return degree >= 2 ? degree : 0;
}

// Cost-based per-operator DOP: annotate when the fanned-out work beats
// doing it serially despite the startup toll. Returns the cost of the
// cheaper alternative and records the degree on `node` when parallel wins.
double PriceMaybeParallel(const CostModel& cm, const PlannerOptions& options,
                          double serial_work, double merge_work,
                          PlanNode* node) {
  int degree = ConfiguredDegree(options);
  if (degree < 2) return serial_work;
  double parallel =
      cm.parallel_startup + serial_work / degree + merge_work;
  if (parallel >= serial_work) return serial_work;
  node->parallel_degree = degree;
  return parallel;
}

// Largest base-table input (in heap slots) feeding `node`. Index accesses
// count as small: they are selective by construction, so an operator above
// them does not inherit "big input" from the table they probe.
uint64_t LargestBaseInput(const PlanNode& node, const rel::Database* db) {
  uint64_t best = 0;
  if (node.kind == PlanKind::kSeqScan ||
      node.kind == PlanKind::kParallelSeqScan) {
    auto table = db->GetTable(node.table);
    if (table.ok()) best = (*table)->num_slots();
  }
  for (const PlanPtr& child : node.children) {
    best = std::max(best, LargestBaseInput(*child, db));
  }
  return best;
}

// Rule per-operator DOP: hash joins and sorts fed by a big base input get
// a parallel degree; small inputs stay serial. The annotation is
// permission, not obligation — the executor re-checks actual row counts
// and pool width at run time before fanning out. Aggregates and Distinct
// always stream serially: merging per-morsel partials lost to the serial
// fold, and a parallel Distinct hashed every row twice.
void AnnotateParallelOps(PlanNode* node, const rel::Database* db,
                         const PlannerOptions& options) {
  for (const PlanPtr& child : node->children) {
    AnnotateParallelOps(child.get(), db, options);
  }
  if (node->kind != PlanKind::kHashJoin && node->kind != PlanKind::kSort) {
    return;
  }
  if (LargestBaseInput(*node, db) < options.parallel_scan_threshold) return;
  node->parallel_degree = ConfiguredDegree(options);
}

}  // namespace

// Per-relation planning state: statistics and pushed-predicate
// selectivities (costed planning only; rules leave them at 1) and the
// chosen access path.
struct PhysicalPlanner::RelInfo {
  const LogicalOp* get = nullptr;
  const rel::Table* table = nullptr;
  std::shared_ptr<const TableStats> stats;
  double base_rows = 1;      // max(1, row_count): keeps ratios finite
  double filtered_rows = 1;  // after every pushed conjunct
  std::vector<double> pushed_sel;
  // How selective an index-driven access the pushed predicates allow: 3 a
  // keyword posting list, 2 an equality on an index's first column, 1 a
  // B+tree range, 0 none. Each rule join component starts from the best.
  int seed_score = 0;

  PlanKind access_kind = PlanKind::kSeqScan;
  const IndexEntry* index = nullptr;
  std::vector<Value> eq_key;
  std::optional<Value> lo;
  bool lo_inclusive = true;
  std::optional<Value> hi;
  bool hi_inclusive = true;
  std::string keyword;
  int parallel_degree = 0;
  std::vector<bool> consumed;  // pushed conjuncts consumed by the access
  double access_out_rows = 1;  // rows the access node itself emits
  double access_cost = 0;      // access + residual-filter evaluation
};

// One cross-relation conjunct with the relations it references and, when
// costed, its selectivity.
struct PhysicalPlanner::JoinConjunct {
  const Expr* expr = nullptr;
  std::vector<size_t> rels;  // ascending
  double selectivity = CardinalityEstimator::kDefaultSel;
  // `lhs = rhs`: the relations each side references (empty otherwise).
  std::vector<size_t> lhs_rels, rhs_rels;
  bool equi = false;  // col = col across two relations
};

// One join in a left-deep order.
struct PhysicalPlanner::JoinStep {
  size_t rel = 0;
  PlanKind method = PlanKind::kNestedLoopJoin;
  const IndexEntry* inl_index = nullptr;
  size_t inl_conjunct = SIZE_MAX;
  double join_rows = 0;  // estimate out of the join node itself
  double cost = 0;       // cumulative cost through this step
  double after_rows = 0; // estimate after residual conjuncts apply
};

// Relations joined left-deep from `first` through `steps`: one connected
// component of the join graph (under kFromOrder, every relation).
struct PhysicalPlanner::JoinComponent {
  size_t first = 0;
  std::vector<JoinStep> steps;
};

// Chooses one relation's access path from the candidate menu: a sequential
// scan, a parallel scan, each index's longest equality prefix, each
// single-column B+tree range and each keyword posting fetch, writing the
// choice into `rel`. Costed planning takes the cheapest candidate. The
// rule takes the highest rank — an equality prefix (longer first), then a
// range, then a keyword, then a parallel scan — and the first of equals.
void PhysicalPlanner::ChooseAccess(const CostModel& cm, RelInfo* rel) {
  const std::vector<ExprPtr>& pushed = rel->get->pushed;
  double base = rel->base_rows;
  double num_pushed = static_cast<double>(pushed.size());

  std::vector<EqPred> eqs;
  std::vector<RangePred> ranges;
  std::vector<ContainsPred> contains;
  for (size_t i = 0; i < pushed.size(); ++i) {
    ClassifyPredicate(*pushed[i], i, &eqs, &ranges, &contains);
  }

  // Baseline: sequential scan evaluating every pushed predicate.
  double best_cost = base * cm.seq_row + base * cm.pred_eval * num_pushed;
  int best_rank = 0;
  rel->access_kind = PlanKind::kSeqScan;
  rel->access_out_rows = rel->filtered_rows;
  rel->consumed.assign(pushed.size(), false);

  // Takes the candidate when it beats the current choice; the caller then
  // fills in the candidate's parameters.
  auto consider = [&](int rank, double cost, PlanKind kind,
                      const IndexEntry* index, double out_rows,
                      const std::vector<size_t>& used) {
    if (costed_ ? cost >= best_cost : rank <= best_rank) return false;
    best_cost = cost;
    best_rank = rank;
    rel->access_kind = kind;
    rel->index = index;
    rel->access_out_rows = out_rows;
    rel->consumed.assign(pushed.size(), false);
    for (size_t ci : used) rel->consumed[ci] = true;
    rel->eq_key.clear();
    rel->lo.reset();
    rel->hi.reset();
    rel->lo_inclusive = rel->hi_inclusive = true;
    rel->keyword.clear();
    return true;
  };

  // A parallel scan pays only when a pushed predicate fuses into its
  // workers; unfiltered, it re-emits its morsels in order for nothing.
  int degree = 0;
  if (!pushed.empty() &&
      rel->table->num_slots() >= options_.parallel_scan_threshold) {
    degree = ConfiguredDegree(options_);
  }
  if (degree >= 2) {
    double cost = cm.parallel_startup +
                  (base * cm.seq_row + base * cm.pred_eval * num_pushed) /
                      degree;
    if (consider(1, cost, PlanKind::kParallelSeqScan, nullptr,
                 rel->filtered_rows, {})) {
      rel->parallel_degree = degree;
    }
  }

  const auto* indexes = db_->IndexesOn(rel->get->table);
  if (indexes == nullptr) {
    rel->access_cost = best_cost;
    return;
  }
  for (const auto& entry : *indexes) {
    if (entry->def.kind == IndexKind::kInverted) {
      for (const ContainsPred& cp : contains) {
        if (cp.bare_column != entry->def.columns[0]) continue;
        rel->seed_score = std::max(rel->seed_score, 3);
        double match = base * rel->pushed_sel[cp.conjunct_index];
        double cost = cm.index_probe + match * cm.keyword_row +
                      match * cm.pred_eval * (num_pushed - 1);
        if (consider(2, cost, PlanKind::kKeywordScan, entry.get(), match,
                     {cp.conjunct_index})) {
          rel->keyword = cp.keyword;
        }
      }
      continue;
    }
    // Longest equality prefix over this index.
    std::vector<Value> key;
    std::vector<size_t> used;
    double sel_prefix = 1.0;
    for (const std::string& col : entry->def.columns) {
      const EqPred* found = nullptr;
      for (const EqPred& ep : eqs) {
        if (ep.bare_column == col) {
          found = &ep;
          break;
        }
      }
      if (found == nullptr) break;
      key.push_back(found->literal);
      used.push_back(found->conjunct_index);
      sel_prefix *= rel->pushed_sel[found->conjunct_index];
    }
    if (!key.empty()) rel->seed_score = std::max(rel->seed_score, 2);
    bool usable = !key.empty() &&
                  (entry->def.kind == IndexKind::kBTree ||
                   key.size() == entry->def.columns.size());
    if (usable) {
      double probe = entry->def.kind == IndexKind::kBTree
                         ? cm.btree_descend
                         : cm.index_probe;
      double match = base * sel_prefix;
      double residual = num_pushed - static_cast<double>(used.size());
      double cost =
          probe + match * cm.index_row + match * cm.pred_eval * residual;
      if (consider(3 + static_cast<int>(key.size()), cost,
                   PlanKind::kIndexScan, entry.get(), match, used)) {
        rel->eq_key = std::move(key);
      }
    }
    // Range over a single-column btree.
    if (entry->def.kind == IndexKind::kBTree &&
        entry->def.columns.size() == 1) {
      for (const RangePred& rp : ranges) {
        if (rp.bare_column != entry->def.columns[0]) continue;
        rel->seed_score = std::max(rel->seed_score, 1);
        double match = base * rel->pushed_sel[rp.conjunct_index];
        double residual = num_pushed - (rp.keep_conjunct ? 0.0 : 1.0);
        double cost = cm.btree_descend + match * cm.index_row +
                      match * cm.pred_eval * residual;
        std::vector<size_t> range_used;
        if (!rp.keep_conjunct) range_used.push_back(rp.conjunct_index);
        if (consider(3, cost, PlanKind::kIndexScan, entry.get(), match,
                     range_used)) {
          rel->lo = rp.lo;
          rel->lo_inclusive = rp.lo_inclusive;
          rel->hi = rp.hi;
          rel->hi_inclusive = rp.hi_inclusive;
        }
      }
    }
  }
  rel->access_cost = best_cost;
}

Result<PlanPtr> PhysicalPlanner::BuildAccessPlan(const LogicalOp& get,
                                                 RelInfo* rel) {
  auto access = std::make_unique<PlanNode>();
  access->kind = rel->access_kind;
  access->table = get.table;
  access->alias = get.alias;
  access->schema = get.schema;
  access->index = rel->index;
  access->eq_key = rel->eq_key;
  access->lo = rel->lo;
  access->lo_inclusive = rel->lo_inclusive;
  access->hi = rel->hi;
  access->hi_inclusive = rel->hi_inclusive;
  access->keyword = rel->keyword;
  if (rel->access_kind == PlanKind::kParallelSeqScan) {
    access->parallel_degree = rel->parallel_degree;
  }
  if (costed_) {
    access->est_rows = rel->access_out_rows;
    access->est_cost = rel->access_cost;
  }

  std::vector<ExprPtr> residual;
  for (size_t i = 0; i < get.pushed.size(); ++i) {
    if (!rel->consumed[i]) residual.push_back(get.pushed[i]->Clone());
  }
  PlanPtr plan = std::move(access);
  if (!residual.empty()) {
    ExprPtr pred = AndAll(std::move(residual));
    XQ_RETURN_IF_ERROR(Bind(pred.get(), plan->schema));
    auto filter = std::make_unique<PlanNode>();
    filter->kind = PlanKind::kFilter;
    filter->schema = plan->schema;
    filter->predicate = std::move(pred);
    if (costed_) {
      filter->est_rows = rel->filtered_rows;
      filter->est_cost = rel->access_cost;
    }
    filter->children.push_back(std::move(plan));
    plan = std::move(filter);
  }
  return plan;
}

// Costed join order of one component: exact DP over left-deep orders up
// to dp_join_limit relations, greedy cheapest-extension beyond, each step
// priced over the three join methods. Relation sets are bit masks over
// `members`.
PhysicalPlanner::JoinComponent PhysicalPlanner::OrderByCost(
    const CostModel& cm, const std::vector<RelInfo>& rels,
    const std::vector<JoinConjunct>& jconjs,
    const std::vector<size_t>& members) const {
  const size_t n = members.size();
  auto rel = [&](size_t i) -> const RelInfo& { return rels[members[i]]; };
  // Each conjunct's relations as member bits: components are closed under
  // conjuncts, so a conjunct of another component stays 0.
  std::vector<int> bit(rels.size(), -1);
  for (size_t i = 0; i < n; ++i) bit[members[i]] = static_cast<int>(i);
  std::vector<uint64_t> masks(jconjs.size(), 0);
  for (size_t c = 0; c < jconjs.size(); ++c) {
    for (size_t r : jconjs[c].rels) {
      if (bit[r] >= 0) masks[c] |= uint64_t{1} << bit[r];
    }
  }

  // Estimated output rows for a relation subset: independent predicates,
  // every conjunct contained in the subset applied once.
  auto rows_of = [&](uint64_t mask) {
    double rows = 1.0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) rows *= rel(i).filtered_rows;
    }
    for (size_t c = 0; c < jconjs.size(); ++c) {
      if (masks[c] != 0 && (masks[c] & ~mask) == 0) {
        rows *= jconjs[c].selectivity;
      }
    }
    return std::max(rows, 1e-3);
  };

  struct Entry {
    double cost = kInf;
    double rows = 0;
    size_t last = SIZE_MAX;
    uint64_t prev = 0;
    PlanKind method = PlanKind::kNestedLoopJoin;
    const IndexEntry* inl_index = nullptr;
    size_t inl_conjunct = SIZE_MAX;
    double join_rows = 0;
  };

  // Best extension of `cur` (covering `mask`) by relation j, over the
  // three join methods. A conjunct "connects" when it needs both sides.
  auto extend = [&](const Entry& cur, uint64_t mask, size_t j) {
    const uint64_t bj = uint64_t{1} << j;
    const RelInfo& rj = rel(j);
    Entry out;
    out.last = j;
    out.prev = mask;
    out.rows = rows_of(mask | bj);
    double after = out.rows;

    std::vector<size_t> connecting_equis;
    for (size_t c = 0; c < jconjs.size(); ++c) {
      if (masks[c] == 0 || (masks[c] & ~(mask | bj)) != 0) continue;
      if (!(masks[c] & bj) || !(masks[c] & mask)) continue;
      if (jconjs[c].equi) connecting_equis.push_back(c);
    }

    // Nested loop (always possible; the only option for cross products).
    out.method = PlanKind::kNestedLoopJoin;
    out.join_rows = cur.rows * rj.filtered_rows;
    out.cost = cur.cost + rj.access_cost +
               cur.rows * rj.filtered_rows * cm.nl_pair +
               after * cm.out_row;

    if (!connecting_equis.empty()) {
      // Hash join: build the new relation, probe with the accumulated side.
      double sel = 1.0;
      for (size_t c : connecting_equis) sel *= jconjs[c].selectivity;
      double join_rows = cur.rows * rj.filtered_rows * sel;
      double cost = cur.cost + rj.access_cost +
                    rj.filtered_rows * cm.hash_build +
                    cur.rows * cm.hash_probe + after * cm.out_row;
      if (cost < out.cost) {
        out.cost = cost;
        out.method = PlanKind::kHashJoin;
        out.join_rows = join_rows;
        out.inl_index = nullptr;
        out.inl_conjunct = SIZE_MAX;
      }
      // Index nested loop: probe an index on the new relation's join
      // column per outer row; its pushed predicates filter post-join.
      for (size_t c : connecting_equis) {
        const JoinConjunct& jc = jconjs[c];
        const Expr& j_col = jc.rhs_rels[0] == members[j] ? *jc.expr->right
                                                         : *jc.expr->left;
        const IndexEntry* idx = db_->FindIndex(
            rj.get->table, {BareName(j_col.column_name)}, IndexKind::kHash);
        double probe = cm.index_probe;
        if (idx == nullptr) {
          idx = db_->FindIndex(rj.get->table, {BareName(j_col.column_name)},
                               IndexKind::kBTree);
          probe = cm.btree_descend;
        }
        if (idx == nullptr) continue;
        double matches = cur.rows * rj.base_rows * jc.selectivity;
        double num_pushed = static_cast<double>(rj.get->pushed.size());
        double inl_cost = cur.cost + cur.rows * probe +
                          matches * cm.index_row +
                          matches * cm.pred_eval * num_pushed +
                          after * cm.out_row;
        if (inl_cost < out.cost) {
          out.cost = inl_cost;
          out.method = PlanKind::kIndexNLJoin;
          out.inl_index = idx;
          out.inl_conjunct = c;
          out.join_rows = matches;
        }
      }
    }
    return out;
  };

  // Relations j that some conjunct links to the subset `mask`; when none
  // does (a conjunct over three or more relations), every remaining one.
  auto candidates_for = [&](uint64_t mask) {
    std::vector<size_t> out;
    for (size_t j = 0; j < n; ++j) {
      const uint64_t bj = uint64_t{1} << j;
      if (mask & bj) continue;
      for (uint64_t m : masks) {
        if (m != 0 && (m & ~(mask | bj)) == 0 && (m & bj) && (m & mask)) {
          out.push_back(j);
          break;
        }
      }
    }
    if (out.empty()) {
      for (size_t j = 0; j < n; ++j) {
        if (!(mask & (uint64_t{1} << j))) out.push_back(j);
      }
    }
    return out;
  };

  auto step_of = [&](const Entry& e) {
    JoinStep s;
    s.rel = members[e.last];
    s.method = e.method;
    s.inl_index = e.inl_index;
    s.inl_conjunct = e.inl_conjunct;
    s.join_rows = e.join_rows;
    s.cost = e.cost;
    s.after_rows = e.rows;
    return s;
  };

  JoinComponent order;
  order.first = members[0];
  if (n == 1) {
    // Single relation: nothing to order.
  } else if (n <= options_.dp_join_limit) {
    // Exact DP over subsets, left-deep. Masks are visited in increasing
    // numeric order, which is a valid topological order because every
    // extension adds a bit.
    std::vector<Entry> dp(uint64_t{1} << n);
    for (size_t i = 0; i < n; ++i) {
      Entry& e = dp[uint64_t{1} << i];
      e.cost = rel(i).access_cost;
      e.rows = rel(i).filtered_rows;
      e.last = i;
      e.prev = 0;
    }
    const uint64_t full = (uint64_t{1} << n) - 1;
    for (uint64_t mask = 1; mask < full; ++mask) {
      if (dp[mask].cost == kInf) continue;
      for (size_t j : candidates_for(mask)) {
        Entry e = extend(dp[mask], mask, j);
        uint64_t next = mask | (uint64_t{1} << j);
        if (e.cost < dp[next].cost) dp[next] = e;
      }
    }
    // Backtrack the winning chain.
    uint64_t mask = full;
    std::vector<Entry> chain;
    while (dp[mask].prev != 0) {
      chain.push_back(dp[mask]);
      mask = dp[mask].prev;
    }
    order.first = members[dp[mask].last];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      order.steps.push_back(step_of(*it));
    }
  } else {
    // Greedy cheapest-extension beyond the DP limit.
    double best_seed = kInf;
    size_t first = 0;
    for (size_t i = 0; i < n; ++i) {
      double score = rel(i).access_cost + rel(i).filtered_rows;
      if (score < best_seed) {
        best_seed = score;
        first = i;
      }
    }
    order.first = members[first];
    Entry cur;
    cur.cost = rel(first).access_cost;
    cur.rows = rel(first).filtered_rows;
    cur.last = first;
    uint64_t mask = uint64_t{1} << first;
    while (Popcount(mask) < static_cast<int>(n)) {
      Entry best;
      for (size_t j : candidates_for(mask)) {
        Entry e = extend(cur, mask, j);
        if (e.cost < best.cost) best = e;
      }
      order.steps.push_back(step_of(best));
      mask |= uint64_t{1} << best.last;
      cur = best;
    }
  }
  return order;
}

// Rule join order of one component. kFromOrder joins the relations in
// literal FROM order. Otherwise the component starts from the relation
// with the best seed_score (the first of equals) and then takes, one at a
// time, the first relation in FROM order that a conjunct links to the
// plan; when none does (a conjunct over three or more relations), the best
// remaining seed. The join method is an index nested loop when the new
// relation keeps a scan access and an equality links the plan to an
// indexed column of it (a hash index first, then a B+tree); else a hash
// join on the linking equalities; else a nested loop.
PhysicalPlanner::JoinComponent PhysicalPlanner::OrderByRule(
    const std::vector<RelInfo>& rels, const std::vector<JoinConjunct>& jconjs,
    const std::vector<size_t>& members) const {
  std::vector<bool> in_plan(rels.size(), false);

  auto on_plan = [&](const std::vector<size_t>& rs) {
    return !rs.empty() && std::all_of(rs.begin(), rs.end(),
                                      [&](size_t r) { return in_plan[r]; });
  };
  auto only = [](const std::vector<size_t>& rs, size_t j) {
    return rs.size() == 1 && rs[0] == j;  // `rs` holds no duplicates
  };
  auto links = [&](const JoinConjunct& jc, size_t j) {
    bool has_j = false, has_plan = false;
    for (size_t r : jc.rels) {
      if (r == j) {
        has_j = true;
      } else if (in_plan[r]) {
        has_plan = true;
      } else {
        return false;
      }
    }
    return has_j && has_plan;
  };
  auto step_for = [&](size_t j) {
    JoinStep s;
    s.rel = j;
    bool scan = rels[j].access_kind == PlanKind::kSeqScan ||
                rels[j].access_kind == PlanKind::kParallelSeqScan;
    for (size_t c = 0; c < jconjs.size(); ++c) {
      const JoinConjunct& jc = jconjs[c];
      const Expr* inner = nullptr;
      if (on_plan(jc.lhs_rels) && only(jc.rhs_rels, j)) {
        inner = jc.expr->right.get();
      } else if (on_plan(jc.rhs_rels) && only(jc.lhs_rels, j)) {
        inner = jc.expr->left.get();
      } else {
        continue;
      }
      s.method = PlanKind::kHashJoin;
      if (!scan || inner->kind != ExprKind::kColumnRef) continue;
      const std::string& table = rels[j].get->table;
      std::vector<std::string> col = {BareName(inner->column_name)};
      const IndexEntry* idx = db_->FindIndex(table, col, IndexKind::kHash);
      if (idx == nullptr) idx = db_->FindIndex(table, col, IndexKind::kBTree);
      if (idx != nullptr) {
        s.method = PlanKind::kIndexNLJoin;
        s.inl_index = idx;
        s.inl_conjunct = c;
        break;
      }
    }
    return s;
  };
  auto best_seed = [&] {
    size_t pick = SIZE_MAX;
    for (size_t j : members) {
      if (!in_plan[j] &&
          (pick == SIZE_MAX || rels[j].seed_score > rels[pick].seed_score)) {
        pick = j;
      }
    }
    return pick;
  };

  const bool from_order = options_.mode == PlannerMode::kFromOrder;
  JoinComponent order;
  order.first = from_order ? members[0] : best_seed();
  in_plan[order.first] = true;
  for (size_t added = 1; added < members.size(); ++added) {
    size_t next = from_order ? members[added] : SIZE_MAX;
    for (size_t j : members) {
      if (next != SIZE_MAX) break;
      if (in_plan[j]) continue;
      for (const JoinConjunct& jc : jconjs) {
        if (links(jc, j)) {
          next = j;
          break;
        }
      }
    }
    if (next == SIZE_MAX) next = best_seed();
    order.steps.push_back(step_for(next));
    in_plan[next] = true;
  }
  return order;
}

Result<PlanPtr> PhysicalPlanner::LowerJoin(const LogicalOp& join) {
  const CostModel cm;
  const size_t n = join.children.size();
  if (costed_ && n > kMaxCostedRelations) {
    return Status::Internal("too many relations for a costed join");
  }

  // --- per-relation stats, selectivities, access paths ------------------
  std::vector<RelInfo> rels(n);
  for (size_t i = 0; i < n; ++i) {
    RelInfo& rel = rels[i];
    rel.get = join.children[i].get();
    XQ_ASSIGN_OR_RETURN(rel.table, db_->GetTable(rel.get->table));
    if (costed_) {
      rel.stats = db_->StatsFor(rel.get->table);
      if (rel.stats == nullptr) {
        return Status::Internal("no statistics for table " + rel.get->table);
      }
      rel.base_rows = std::max<double>(
          1.0, static_cast<double>(rel.stats->row_count));
    }
    rel.filtered_rows = rel.base_rows;
    for (const ExprPtr& c : rel.get->pushed) {
      double sel = costed_ ? CardinalityEstimator::Selectivity(
                                 *c, rel.get->schema, *rel.stats)
                           : 1.0;
      rel.pushed_sel.push_back(sel);
      rel.filtered_rows *= sel;
    }
    rel.filtered_rows = std::max(rel.filtered_rows, 1e-3);
    ChooseAccess(cm, &rel);
  }

  // --- cross-relation conjuncts: relations, equi shapes, selectivities --
  // The relations (ascending, no duplicates) whose columns `e` references.
  // A qualified reference can only resolve in the relation it names.
  auto relations_of = [&](const Expr& e) {
    std::vector<const Expr*> refs;
    CollectRefs(e, &refs);
    std::vector<size_t> out;
    for (const Expr* ref : refs) {
      const std::string& name = ref->column_name;
      size_t dot = name.find('.');
      for (size_t i = 0; i < n; ++i) {
        const LogicalOp& get = *rels[i].get;
        if (dot != std::string::npos &&
            name.compare(0, dot, get.alias) != 0) {
          continue;
        }
        if (get.schema.FindColumn(name).has_value()) {
          out.push_back(i);
          break;
        }
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  std::vector<JoinConjunct> jconjs;
  for (const ExprPtr& c : join.conjuncts) {
    JoinConjunct jc;
    jc.expr = c.get();
    if (c->kind == ExprKind::kBinary && c->bin_op == BinaryOp::kEq) {
      jc.lhs_rels = relations_of(*c->left);
      jc.rhs_rels = relations_of(*c->right);
      std::set_union(jc.lhs_rels.begin(), jc.lhs_rels.end(),
                     jc.rhs_rels.begin(), jc.rhs_rels.end(),
                     std::back_inserter(jc.rels));
      jc.equi = c->left->kind == ExprKind::kColumnRef &&
                c->right->kind == ExprKind::kColumnRef &&
                jc.lhs_rels.size() == 1 && jc.rhs_rels.size() == 1 &&
                jc.lhs_rels != jc.rhs_rels;
    } else {
      jc.rels = relations_of(*c);
    }
    if (costed_ && jc.equi) {
      const RelInfo& l = rels[jc.lhs_rels[0]];
      const RelInfo& r = rels[jc.rhs_rels[0]];
      jc.selectivity = CardinalityEstimator::EquiJoinSelectivity(
          *l.stats, l.get->schema.FindColumn(c->left->column_name).value(),
          *r.stats, r.get->schema.FindColumn(c->right->column_name).value());
    }
    jconjs.push_back(std::move(jc));
  }

  // --- connected components, each ordered on its own ---------------------
  // Union-find over each conjunct's relations; a component lists its
  // relations ascending, and components come in order of their first
  // relation. kFromOrder keeps one literal FROM-order chain.
  std::vector<std::vector<size_t>> members;
  if (options_.mode == PlannerMode::kFromOrder) {
    members.emplace_back(n);
    std::iota(members[0].begin(), members[0].end(), size_t{0});
  } else {
    std::vector<size_t> root(n);
    std::iota(root.begin(), root.end(), size_t{0});
    auto find = [&](size_t r) {
      while (root[r] != r) r = root[r] = root[root[r]];
      return r;
    };
    for (const JoinConjunct& jc : jconjs) {
      for (size_t r : jc.rels) root[find(r)] = find(jc.rels[0]);
    }
    std::vector<size_t> slot(n, SIZE_MAX);
    for (size_t r = 0; r < n; ++r) {
      size_t& s = slot[find(r)];
      if (s == SIZE_MAX) {
        s = members.size();
        members.emplace_back();
      }
      members[s].push_back(r);
    }
  }
  std::vector<JoinComponent> order;
  for (const std::vector<size_t>& m : members) {
    order.push_back(costed_ ? OrderByCost(cm, rels, jconjs, m)
                            : OrderByRule(rels, jconjs, m));
  }
  if (!costed_) {
    // The rules cross the component holding the best seed first (the
    // first of equals), then the best of the rest.
    std::stable_sort(order.begin(), order.end(),
                     [&](const JoinComponent& a, const JoinComponent& b) {
                       int sa = rels[a.first].seed_score;
                       int sb = rels[b.first].seed_score;
                       return sa != sb ? sa > sb : a.first < b.first;
                     });
  }
  size_t position = 0;
  for (const JoinComponent& component : order) {
    if (component.first != position++) reordered_ = true;
    for (const JoinStep& step : component.steps) {
      if (step.rel != position++) reordered_ = true;
    }
  }

  // --- physical construction -------------------------------------------
  // The conjunct pool: clones consumed as joins bind them, leftovers
  // applied as filters the moment they bind.
  std::vector<ExprPtr> pool;
  pool.reserve(jconjs.size());
  for (const ExprPtr& c : join.conjuncts) pool.push_back(c->Clone());

  auto apply_bindable = [&](PlanPtr p, double est_rows,
                            double est_cost) -> Result<PlanPtr> {
    std::vector<ExprPtr> applicable;
    for (ExprPtr& c : pool) {
      if (c != nullptr && BindableAgainst(*c, p->schema)) {
        applicable.push_back(std::move(c));
        c = nullptr;
      }
    }
    if (applicable.empty()) return PlanPtr(std::move(p));
    ExprPtr pred = AndAll(std::move(applicable));
    XQ_RETURN_IF_ERROR(Bind(pred.get(), p->schema));
    auto filter = std::make_unique<PlanNode>();
    filter->kind = PlanKind::kFilter;
    filter->schema = p->schema;
    filter->predicate = std::move(pred);
    if (costed_) {
      filter->est_rows = est_rows;
      filter->est_cost = est_cost;
    }
    filter->children.push_back(std::move(p));
    return PlanPtr(std::move(filter));
  };

  std::vector<PlanPtr> parts;
  for (const JoinComponent& component : order) {
    RelInfo& first = rels[component.first];
    XQ_ASSIGN_OR_RETURN(PlanPtr part, BuildAccessPlan(*first.get, &first));
    for (const JoinStep& step : component.steps) {
      RelInfo& rel = rels[step.rel];
      const Schema& qualified = rel.get->schema;
      auto jnode = std::make_unique<PlanNode>();
      jnode->schema = Schema::Concat(part->schema, qualified);
      if (costed_) {
        jnode->est_rows = step.join_rows;
        jnode->est_cost = step.cost;
      }

      if (step.method == PlanKind::kIndexNLJoin) {
        const ExprPtr& c = pool[step.inl_conjunct];
        jnode->kind = PlanKind::kIndexNLJoin;
        jnode->table = rel.get->table;
        jnode->alias = rel.get->alias;
        jnode->index = step.inl_index;
        // The outer key is whichever equality side binds the accumulated
        // plan (the other side is the inner index column).
        ExprPtr outer_key = BindableAgainst(*c->left, part->schema)
                                ? c->left->Clone()
                                : c->right->Clone();
        XQ_RETURN_IF_ERROR(Bind(outer_key.get(), part->schema));
        jnode->outer_key_exprs.push_back(std::move(outer_key));
        pool[step.inl_conjunct] = nullptr;
        jnode->children.push_back(std::move(part));
        // The discarded access path's predicates re-enter the pool so
        // apply_bindable turns them into a post-join filter.
        for (const ExprPtr& p : rel.get->pushed) pool.push_back(p->Clone());
      } else if (step.method == PlanKind::kHashJoin) {
        XQ_ASSIGN_OR_RETURN(PlanPtr access, BuildAccessPlan(*rel.get, &rel));
        jnode->kind = PlanKind::kHashJoin;
        for (ExprPtr& c : pool) {
          if (c == nullptr) continue;
          const Expr& e = *c;
          if (e.kind != ExprKind::kBinary || e.bin_op != BinaryOp::kEq) {
            continue;
          }
          bool l_on_left = BindableAgainst(*e.left, part->schema);
          bool l_on_right = BindableAgainst(*e.left, qualified);
          bool r_on_left = BindableAgainst(*e.right, part->schema);
          bool r_on_right = BindableAgainst(*e.right, qualified);
          ExprPtr lk, rk;
          if (l_on_left && !l_on_right && r_on_right && !r_on_left) {
            lk = e.left->Clone();
            rk = e.right->Clone();
          } else if (r_on_left && !r_on_right && l_on_right && !l_on_left) {
            lk = e.right->Clone();
            rk = e.left->Clone();
          } else {
            continue;
          }
          XQ_RETURN_IF_ERROR(Bind(lk.get(), part->schema));
          XQ_RETURN_IF_ERROR(Bind(rk.get(), qualified));
          jnode->left_keys.push_back(std::move(lk));
          jnode->right_keys.push_back(std::move(rk));
          c = nullptr;
        }
        jnode->children.push_back(std::move(part));
        jnode->children.push_back(std::move(access));
        // Per-operator DOP: parallel build/probe when the fanned-out hash
        // work amortizes the startup toll; small joins stay serial.
        if (costed_) {
          double build_rows = std::max(0.0, jnode->children[1]->est_rows);
          double probe_rows = std::max(0.0, jnode->children[0]->est_rows);
          PriceMaybeParallel(
              cm, options_,
              build_rows * cm.hash_build + probe_rows * cm.hash_probe, 0.0,
              jnode.get());
        }
      } else {
        XQ_ASSIGN_OR_RETURN(PlanPtr access, BuildAccessPlan(*rel.get, &rel));
        jnode->kind = PlanKind::kNestedLoopJoin;
        jnode->children.push_back(std::move(part));
        jnode->children.push_back(std::move(access));
      }
      XQ_ASSIGN_OR_RETURN(part, apply_bindable(PlanPtr(std::move(jnode)),
                                               step.after_rows, step.cost));
    }
    parts.push_back(std::move(part));
  }

  // Components cross last, each side already filtered, so they never
  // multiply unfiltered cardinalities. Under a DISTINCT root each side is
  // first narrowed to the columns read above and deduplicated: DISTINCT
  // over A x B equals DISTINCT over DISTINCT(A) x DISTINCT(B) on those
  // columns.
  const bool dedupe = parts.size() >= 2 && distinct_reads_.has_value();
  PlanPtr plan;
  for (PlanPtr& part : parts) {
    if (dedupe) {
      XQ_ASSIGN_OR_RETURN(part, DedupeComponent(std::move(part)));
    }
    if (plan == nullptr) {
      plan = std::move(part);
      continue;
    }
    auto cross = std::make_unique<PlanNode>();
    cross->kind = PlanKind::kNestedLoopJoin;
    cross->schema = Schema::Concat(plan->schema, part->schema);
    if (costed_) {
      cross->est_rows = plan->est_rows * part->est_rows;
      cross->est_cost = plan->est_cost + part->est_cost +
                        cross->est_rows * (cm.nl_pair + cm.out_row);
    }
    cross->children.push_back(std::move(plan));
    cross->children.push_back(std::move(part));
    plan = std::move(cross);
  }

  // Anything left in the pool failed to bind anywhere — the binder
  // validated against the full schema, so this cannot happen; guard to
  // keep the invariant visible.
  for (const ExprPtr& c : pool) {
    if (c != nullptr) {
      return Status::Internal("unplaced join conjunct: " + c->ToString());
    }
  }
  return plan;
}

Result<PlanPtr> PhysicalPlanner::DedupeComponent(PlanPtr part) const {
  const CostModel cm;
  const double in_rows = part->est_rows;
  const double in_cost = part->est_cost;
  auto node = std::make_unique<PlanNode>();
  for (size_t i = 0; i < part->schema.size(); ++i) {
    bool read = std::any_of(
        distinct_reads_->begin(), distinct_reads_->end(), [&](const Expr* e) {
          return part->schema.FindColumn(e->column_name) == i;
        });
    if (!read) continue;
    ExprPtr ref = MakeColumnRef(part->schema.column(i).name);
    XQ_RETURN_IF_ERROR(Bind(ref.get(), part->schema));
    node->project_exprs.push_back(std::move(ref));
    node->schema.AddColumn(part->schema.column(i));
  }
  if (node->project_exprs.empty()) {
    // Nothing above reads this component: it only has to be non-empty.
    node->kind = PlanKind::kLimit;
    node->limit = 1;
    node->schema = part->schema;
    if (costed_) {
      node->est_rows = std::min(in_rows, 1.0);
      node->est_cost = in_cost;
    }
    node->children.push_back(std::move(part));
    return PlanPtr(std::move(node));
  }
  node->kind = PlanKind::kProject;
  if (costed_) {
    node->est_rows = in_rows;
    node->est_cost = in_cost + in_rows * cm.out_row;
  }
  node->children.push_back(std::move(part));
  auto distinct = std::make_unique<PlanNode>();
  distinct->kind = PlanKind::kDistinct;
  distinct->schema = node->schema;
  if (costed_) {
    distinct->est_rows = std::max(1.0, in_rows * 0.5);
    distinct->est_cost = node->est_cost + in_rows;
  }
  distinct->children.push_back(std::move(node));
  return PlanPtr(std::move(distinct));
}

Result<PlanPtr> PhysicalPlanner::Lower(const LogicalOp& root) {
  // The join-component dedupe applies under a DISTINCT root (a LIMIT
  // above it only truncates its output) with nothing but Project, Sort and
  // Filter between it and the join: an Aggregate's groups count rows.
  const LogicalOp* op = &root;
  while (op->kind == LogicalKind::kLimit) op = op->children[0].get();
  if (op->kind == LogicalKind::kDistinct) {
    std::vector<const Expr*> reads;
    for (op = op->children[0].get(); op->kind != LogicalKind::kJoin;
         op = op->children[0].get()) {
      if (op->kind == LogicalKind::kProject) {
        for (const ExprPtr& e : op->exprs) CollectRefs(*e, &reads);
      } else if (op->kind == LogicalKind::kSort) {
        for (const SortKey& k : op->keys) CollectRefs(*k.expr, &reads);
      } else if (op->kind == LogicalKind::kFilter) {
        CollectRefs(*op->predicate, &reads);
      } else {
        break;
      }
    }
    if (op->kind == LogicalKind::kJoin) distinct_reads_ = std::move(reads);
  }
  XQ_ASSIGN_OR_RETURN(PlanPtr plan, LowerOp(root));
  if (!costed_) AnnotateParallelOps(plan.get(), db_, options_);
  return plan;
}

Result<PlanPtr> PhysicalPlanner::LowerOp(const LogicalOp& op) {
  const CostModel cm;
  if (op.kind == LogicalKind::kJoin) return LowerJoin(op);
  if (op.kind == LogicalKind::kGet) {
    return Status::Internal("bare Get outside a Join");
  }
  XQ_ASSIGN_OR_RETURN(PlanPtr child, LowerOp(*op.children[0]));
  double in_rows = child->est_rows >= 0 ? child->est_rows : 1000.0;
  double cost = child->est_cost >= 0 ? child->est_cost : 0.0;
  double out_rows = in_rows;

  auto node = std::make_unique<PlanNode>();
  // Pass-through operators (Filter/Sort/Limit/Distinct) emit their child's
  // rows unchanged, so they must advertise the child's *physical* schema —
  // join reordering makes it differ from the logical FROM-order schema.
  // Only Project and Aggregate define a new row layout (op.schema).
  node->schema = (op.kind == LogicalKind::kProject ||
                  op.kind == LogicalKind::kAggregate)
                     ? op.schema
                     : child->schema;
  switch (op.kind) {
    case LogicalKind::kFilter: {
      node->kind = PlanKind::kFilter;
      node->predicate = op.predicate->Clone();
      XQ_RETURN_IF_ERROR(Bind(node->predicate.get(), child->schema));
      cost += in_rows * cm.pred_eval;
      out_rows = std::max(1.0, in_rows * CardinalityEstimator::kDefaultSel);
      break;
    }
    case LogicalKind::kProject: {
      node->kind = PlanKind::kProject;
      for (const ExprPtr& e : op.exprs) {
        ExprPtr copy = e->Clone();
        XQ_RETURN_IF_ERROR(Bind(copy.get(), child->schema));
        node->project_exprs.push_back(std::move(copy));
      }
      cost += in_rows * cm.out_row;
      break;
    }
    case LogicalKind::kAggregate: {
      node->kind = PlanKind::kAggregate;
      for (const ExprPtr& g : op.group_exprs) {
        ExprPtr copy = g->Clone();
        XQ_RETURN_IF_ERROR(Bind(copy.get(), child->schema));
        node->group_exprs.push_back(std::move(copy));
      }
      for (const AggSpec& spec : op.aggs) {
        AggSpec copy;
        copy.func = spec.func;
        if (spec.arg) {
          copy.arg = spec.arg->Clone();
          XQ_RETURN_IF_ERROR(Bind(copy.arg.get(), child->schema));
        }
        node->aggs.push_back(std::move(copy));
      }
      // Always serial: merging per-morsel partials lost to the serial fold.
      cost += in_rows;
      out_rows = op.group_exprs.empty() ? 1.0 : std::max(1.0, in_rows * 0.1);
      break;
    }
    case LogicalKind::kSort: {
      node->kind = PlanKind::kSort;
      for (const SortKey& k : op.keys) {
        SortKey copy;
        copy.expr = k.expr->Clone();
        copy.desc = k.desc;
        XQ_RETURN_IF_ERROR(Bind(copy.expr.get(), child->schema));
        node->sort_keys.push_back(std::move(copy));
      }
      // Parallel alternative: per-morsel sorts share the n·log n work;
      // the serial k-way merge re-touches every row (≈log of the run
      // count, a small constant, folded into the 3x factor).
      if (costed_) {
        cost += PriceMaybeParallel(
            cm, options_,
            in_rows * std::log2(std::max(in_rows, 2.0)) * cm.sort_row_log,
            in_rows * cm.sort_row_log * 3.0, node.get());
      }
      break;
    }
    case LogicalKind::kLimit: {
      node->kind = PlanKind::kLimit;
      node->limit = op.limit;
      node->offset = op.offset;
      if (op.limit >= 0) {
        out_rows = std::min(in_rows, static_cast<double>(op.limit));
      }
      break;
    }
    case LogicalKind::kDistinct: {
      node->kind = PlanKind::kDistinct;
      cost += in_rows;
      out_rows = std::max(1.0, in_rows * 0.5);
      break;
    }
    default:
      return Status::Internal("unexpected logical node in unary chain");
  }
  if (costed_) {
    node->est_rows = out_rows;
    node->est_cost = cost;
  }
  node->children.push_back(std::move(child));
  return PlanPtr(std::move(node));
}

}  // namespace xomatiq::sql
