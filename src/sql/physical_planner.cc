#include "sql/physical_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
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
// or hardware concurrency; 0 = parallelism unavailable, stay serial.
int ConfiguredDegree(const PlannerOptions& options) {
  int degree = options.parallel_degree;
  if (degree <= 0) {
    degree = static_cast<int>(std::thread::hardware_concurrency());
  }
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

}  // namespace

// Per-relation planning state: statistics, pushed-predicate selectivities
// and the chosen (cheapest) access path.
struct CostBasedPlanner::RelInfo {
  const LogicalOp* get = nullptr;
  const rel::Table* table = nullptr;
  std::shared_ptr<const TableStats> stats;
  double base_rows = 1;      // max(1, row_count): keeps ratios finite
  double filtered_rows = 1;  // after every pushed conjunct
  std::vector<double> pushed_sel;

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

// One cross-relation conjunct with its relation mask and selectivity.
struct CostBasedPlanner::JoinConjunct {
  const Expr* expr = nullptr;
  uint64_t mask = 0;
  double selectivity = CardinalityEstimator::kDefaultSel;
  bool equi = false;             // col = col across two relations
  size_t left_rel = 0, right_rel = 0;
  std::string left_col, right_col;  // as written (possibly qualified)
};

// One join in the chosen left-deep order.
struct CostBasedPlanner::JoinStep {
  size_t rel = 0;
  PlanKind method = PlanKind::kNestedLoopJoin;
  const IndexEntry* inl_index = nullptr;
  size_t inl_conjunct = SIZE_MAX;
  double join_rows = 0;  // estimate out of the join node itself
  double cost = 0;       // cumulative cost through this step
  double after_rows = 0; // estimate after residual conjuncts apply
};

// Chooses the cheapest access path for one relation given its pushed
// predicates, writing the choice into `rel`. Mirrors the rule-based
// planner's access-path menu but prices every alternative instead of
// applying a fixed preference order.
void CostBasedPlanner::ChooseAccess(const CostModel& cm,
                                    const std::string& table_name,
                                    RelInfo* rel) {
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
  rel->access_kind = PlanKind::kSeqScan;
  rel->access_out_rows = rel->filtered_rows;
  rel->consumed.assign(pushed.size(), false);

  auto consider = [&](double cost, PlanKind kind, const IndexEntry* index,
                      double out_rows, const std::vector<size_t>& used) {
    if (cost >= best_cost) return;
    best_cost = cost;
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
  };

  if (rel->table->num_slots() >= options_.parallel_scan_threshold) {
    int degree = options_.parallel_degree;
    if (degree <= 0) {
      degree = static_cast<int>(std::thread::hardware_concurrency());
    }
    if (degree >= 2) {
      double cost = cm.parallel_startup +
                    (base * cm.seq_row + base * cm.pred_eval * num_pushed) /
                        degree;
      if (cost < best_cost) {
        consider(cost, PlanKind::kParallelSeqScan, nullptr,
                 rel->filtered_rows, {});
        rel->parallel_degree = degree;
      }
    }
  }

  const auto* indexes = db_->IndexesOn(table_name);
  if (indexes != nullptr) {
    for (const auto& entry : *indexes) {
      if (entry->def.kind == IndexKind::kInverted) {
        for (const ContainsPred& cp : contains) {
          if (cp.bare_column != entry->def.columns[0]) continue;
          double sel = rel->pushed_sel[cp.conjunct_index];
          double match = base * sel;
          double cost = cm.index_probe + match * cm.keyword_row +
                        match * cm.pred_eval * (num_pushed - 1);
          std::vector<size_t> used = {cp.conjunct_index};
          if (cost < best_cost) {
            consider(cost, PlanKind::kKeywordScan, entry.get(), match, used);
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
        if (cost < best_cost) {
          std::vector<Value> key_copy = key;
          consider(cost, PlanKind::kIndexScan, entry.get(), match, used);
          rel->eq_key = std::move(key_copy);
        }
      }
      // Range over a single-column btree.
      if (entry->def.kind == IndexKind::kBTree &&
          entry->def.columns.size() == 1) {
        for (const RangePred& rp : ranges) {
          if (rp.bare_column != entry->def.columns[0]) continue;
          double sel = rel->pushed_sel[rp.conjunct_index];
          double match = base * sel;
          double residual =
              num_pushed - (rp.keep_conjunct ? 0.0 : 1.0);
          double cost = cm.btree_descend + match * cm.index_row +
                        match * cm.pred_eval * residual;
          if (cost < best_cost) {
            std::vector<size_t> used;
            if (!rp.keep_conjunct) used.push_back(rp.conjunct_index);
            consider(cost, PlanKind::kIndexScan, entry.get(), match, used);
            rel->lo = rp.lo;
            rel->lo_inclusive = rp.lo_inclusive;
            rel->hi = rp.hi;
            rel->hi_inclusive = rp.hi_inclusive;
          }
        }
      }
    }
  }
  rel->access_cost = best_cost;
}

Result<PlanPtr> CostBasedPlanner::BuildAccessPlan(const LogicalOp& get,
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
  access->est_rows = rel->access_out_rows;
  access->est_cost = rel->access_cost;

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
    filter->est_rows = rel->filtered_rows;
    filter->est_cost = rel->access_cost;
    filter->children.push_back(std::move(plan));
    plan = std::move(filter);
  }
  return plan;
}

Result<PlanPtr> CostBasedPlanner::LowerJoin(const LogicalOp& join) {
  const CostModel cm;
  const size_t n = join.children.size();
  if (n > 63) {
    return Status::InvalidArgument("too many relations in join");
  }

  // --- per-relation stats, selectivities, access paths ------------------
  std::vector<RelInfo> rels(n);
  for (size_t i = 0; i < n; ++i) {
    RelInfo& rel = rels[i];
    rel.get = join.children[i].get();
    XQ_ASSIGN_OR_RETURN(rel.table, db_->GetTable(rel.get->table));
    rel.stats = db_->StatsFor(rel.get->table);
    if (rel.stats == nullptr) {
      return Status::Internal("no statistics for table " + rel.get->table);
    }
    rel.base_rows = std::max<double>(1.0, static_cast<double>(
                                              rel.stats->row_count));
    rel.filtered_rows = rel.base_rows;
    for (const ExprPtr& c : rel.get->pushed) {
      double sel = CardinalityEstimator::Selectivity(*c, rel.get->schema,
                                                     *rel.stats);
      rel.pushed_sel.push_back(sel);
      rel.filtered_rows *= sel;
    }
    rel.filtered_rows = std::max(rel.filtered_rows, 1e-3);
    ChooseAccess(cm, rel.get->table, &rel);
  }

  // --- cross-relation conjuncts: masks, selectivities, equi shapes ------
  std::vector<JoinConjunct> jconjs;
  for (const ExprPtr& c : join.conjuncts) {
    JoinConjunct jc;
    jc.expr = c.get();
    std::vector<const Expr*> refs;
    CollectRefs(*c, &refs);
    for (const Expr* ref : refs) {
      for (size_t i = 0; i < n; ++i) {
        if (rels[i].get->schema.FindColumn(ref->column_name).has_value()) {
          jc.mask |= uint64_t{1} << i;
          break;
        }
      }
    }
    if (c->kind == ExprKind::kBinary && c->bin_op == BinaryOp::kEq &&
        c->left->kind == ExprKind::kColumnRef &&
        c->right->kind == ExprKind::kColumnRef) {
      size_t lrel = n, rrel = n;
      for (size_t i = 0; i < n; ++i) {
        if (rels[i].get->schema.FindColumn(c->left->column_name)) lrel = i;
        if (rels[i].get->schema.FindColumn(c->right->column_name)) rrel = i;
      }
      if (lrel < n && rrel < n && lrel != rrel) {
        jc.equi = true;
        jc.left_rel = lrel;
        jc.right_rel = rrel;
        jc.left_col = c->left->column_name;
        jc.right_col = c->right->column_name;
        size_t lcol =
            rels[lrel].get->schema.FindColumn(c->left->column_name).value();
        size_t rcol =
            rels[rrel].get->schema.FindColumn(c->right->column_name).value();
        jc.selectivity = CardinalityEstimator::EquiJoinSelectivity(
            *rels[lrel].stats, lcol, *rels[rrel].stats, rcol);
      }
    }
    jconjs.push_back(std::move(jc));
  }

  // Estimated output rows for a relation subset: independent predicates,
  // every conjunct contained in the subset applied once.
  auto rows_of = [&](uint64_t mask) {
    double rows = 1.0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) rows *= rels[i].filtered_rows;
    }
    for (const JoinConjunct& jc : jconjs) {
      if (jc.mask != 0 && (jc.mask & ~mask) == 0) rows *= jc.selectivity;
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
    Entry out;
    out.last = j;
    out.prev = mask;
    out.rows = rows_of(mask | bj);
    double after = out.rows;

    std::vector<size_t> connecting_equis;
    for (size_t c = 0; c < jconjs.size(); ++c) {
      const JoinConjunct& jc = jconjs[c];
      if (jc.mask == 0 || (jc.mask & ~(mask | bj)) != 0) continue;
      if (!(jc.mask & bj) || !(jc.mask & mask)) continue;
      if (jc.equi) connecting_equis.push_back(c);
    }

    // Nested loop (always possible; the only option for cross products).
    out.method = PlanKind::kNestedLoopJoin;
    out.join_rows = cur.rows * rels[j].filtered_rows;
    out.cost = cur.cost + rels[j].access_cost +
               cur.rows * rels[j].filtered_rows * cm.nl_pair +
               after * cm.out_row;

    if (!connecting_equis.empty()) {
      // Hash join: build the new relation, probe with the accumulated side.
      double sel = 1.0;
      for (size_t c : connecting_equis) sel *= jconjs[c].selectivity;
      double join_rows = cur.rows * rels[j].filtered_rows * sel;
      double cost = cur.cost + rels[j].access_cost +
                    rels[j].filtered_rows * cm.hash_build +
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
        const std::string& j_col =
            jc.right_rel == j ? jc.right_col : jc.left_col;
        const IndexEntry* idx = db_->FindIndex(
            rels[j].get->table, {BareName(j_col)}, IndexKind::kHash);
        double probe = cm.index_probe;
        if (idx == nullptr) {
          idx = db_->FindIndex(rels[j].get->table, {BareName(j_col)},
                               IndexKind::kBTree);
          probe = cm.btree_descend;
        }
        if (idx == nullptr) continue;
        double matches = cur.rows * rels[j].base_rows * jc.selectivity;
        double num_pushed = static_cast<double>(rels[j].get->pushed.size());
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

  // Relations j that some conjunct links to the subset `mask`; empty means
  // only cross products remain.
  auto connected_rels = [&](uint64_t mask) {
    std::vector<size_t> out;
    for (size_t j = 0; j < n; ++j) {
      const uint64_t bj = uint64_t{1} << j;
      if (mask & bj) continue;
      for (const JoinConjunct& jc : jconjs) {
        if (jc.mask != 0 && (jc.mask & ~(mask | bj)) == 0 &&
            (jc.mask & bj) && (jc.mask & mask)) {
          out.push_back(j);
          break;
        }
      }
    }
    return out;
  };

  // --- join-order search ------------------------------------------------
  size_t first_rel = 0;
  std::vector<JoinStep> steps;
  if (n == 1) {
    // Single relation: nothing to order.
  } else if (n <= options_.dp_join_limit) {
    // Exact DP over subsets, left-deep. Masks are visited in increasing
    // numeric order, which is a valid topological order because every
    // extension adds a bit.
    std::vector<Entry> dp(uint64_t{1} << n);
    for (size_t i = 0; i < n; ++i) {
      Entry& e = dp[uint64_t{1} << i];
      e.cost = rels[i].access_cost;
      e.rows = rels[i].filtered_rows;
      e.last = i;
      e.prev = 0;
    }
    const uint64_t full = (uint64_t{1} << n) - 1;
    for (uint64_t mask = 1; mask < full; ++mask) {
      if (dp[mask].cost == kInf) continue;
      std::vector<size_t> candidates = connected_rels(mask);
      if (candidates.empty()) {
        for (size_t j = 0; j < n; ++j) {
          if (!(mask & (uint64_t{1} << j))) candidates.push_back(j);
        }
      }
      for (size_t j : candidates) {
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
    first_rel = dp[mask].last;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      JoinStep s;
      s.rel = it->last;
      s.method = it->method;
      s.inl_index = it->inl_index;
      s.inl_conjunct = it->inl_conjunct;
      s.join_rows = it->join_rows;
      s.cost = it->cost;
      s.after_rows = it->rows;
      steps.push_back(s);
    }
  } else {
    // Greedy cheapest-extension beyond the DP limit.
    first_rel = 0;
    double best_seed = kInf;
    for (size_t i = 0; i < n; ++i) {
      double score = rels[i].access_cost + rels[i].filtered_rows;
      if (score < best_seed) {
        best_seed = score;
        first_rel = i;
      }
    }
    Entry cur;
    cur.cost = rels[first_rel].access_cost;
    cur.rows = rels[first_rel].filtered_rows;
    cur.last = first_rel;
    uint64_t mask = uint64_t{1} << first_rel;
    while (Popcount(mask) < static_cast<int>(n)) {
      std::vector<size_t> candidates = connected_rels(mask);
      if (candidates.empty()) {
        for (size_t j = 0; j < n; ++j) {
          if (!(mask & (uint64_t{1} << j))) candidates.push_back(j);
        }
      }
      Entry best;
      for (size_t j : candidates) {
        Entry e = extend(cur, mask, j);
        if (e.cost < best.cost) best = e;
      }
      JoinStep s;
      s.rel = best.last;
      s.method = best.method;
      s.inl_index = best.inl_index;
      s.inl_conjunct = best.inl_conjunct;
      s.join_rows = best.join_rows;
      s.cost = best.cost;
      s.after_rows = best.rows;
      steps.push_back(s);
      mask |= uint64_t{1} << best.last;
      cur = best;
    }
  }

  reordered_ = first_rel != 0;
  for (size_t k = 0; k < steps.size(); ++k) {
    if (steps[k].rel != k + 1) reordered_ = true;
  }

  // --- physical construction -------------------------------------------
  // The conjunct pool mirrors the rule-based planner: clones consumed as
  // joins bind them, leftovers applied as filters the moment they bind.
  std::vector<ExprPtr> pool;
  pool.reserve(jconjs.size());
  for (const ExprPtr& c : join.conjuncts) pool.push_back(c->Clone());

  XQ_ASSIGN_OR_RETURN(PlanPtr plan,
                      BuildAccessPlan(*rels[first_rel].get, &rels[first_rel]));

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
    filter->est_rows = est_rows;
    filter->est_cost = est_cost;
    filter->children.push_back(std::move(p));
    return PlanPtr(std::move(filter));
  };

  for (const JoinStep& step : steps) {
    RelInfo& rel = rels[step.rel];
    const Schema& qualified = rel.get->schema;
    auto jnode = std::make_unique<PlanNode>();
    jnode->schema = Schema::Concat(plan->schema, qualified);
    jnode->est_rows = step.join_rows;
    jnode->est_cost = step.cost;

    if (step.method == PlanKind::kIndexNLJoin) {
      const ExprPtr& c = pool[step.inl_conjunct];
      jnode->kind = PlanKind::kIndexNLJoin;
      jnode->table = rel.get->table;
      jnode->alias = rel.get->alias;
      jnode->index = step.inl_index;
      // The outer key is whichever equality side binds the accumulated
      // plan (the other side is the inner index column).
      ExprPtr outer_key = BindableAgainst(*c->left, plan->schema)
                              ? c->left->Clone()
                              : c->right->Clone();
      XQ_RETURN_IF_ERROR(Bind(outer_key.get(), plan->schema));
      jnode->outer_key_exprs.push_back(std::move(outer_key));
      pool[step.inl_conjunct] = nullptr;
      jnode->children.push_back(std::move(plan));
      plan = std::move(jnode);
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
        bool l_on_left = BindableAgainst(*e.left, plan->schema);
        bool l_on_right = BindableAgainst(*e.left, qualified);
        bool r_on_left = BindableAgainst(*e.right, plan->schema);
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
        XQ_RETURN_IF_ERROR(Bind(lk.get(), plan->schema));
        XQ_RETURN_IF_ERROR(Bind(rk.get(), qualified));
        jnode->left_keys.push_back(std::move(lk));
        jnode->right_keys.push_back(std::move(rk));
        c = nullptr;
      }
      jnode->children.push_back(std::move(plan));
      jnode->children.push_back(std::move(access));
      // Per-operator DOP: parallel build/probe when the fanned-out hash
      // work amortizes the startup toll; small joins stay serial.
      {
        const CostModel cm;
        double build_rows = std::max(0.0, jnode->children[1]->est_rows);
        double probe_rows = std::max(0.0, jnode->children[0]->est_rows);
        PriceMaybeParallel(
            cm, options_,
            build_rows * cm.hash_build + probe_rows * cm.hash_probe, 0.0,
            jnode.get());
      }
      plan = std::move(jnode);
    } else {
      XQ_ASSIGN_OR_RETURN(PlanPtr access, BuildAccessPlan(*rel.get, &rel));
      jnode->kind = PlanKind::kNestedLoopJoin;
      jnode->children.push_back(std::move(plan));
      jnode->children.push_back(std::move(access));
      plan = std::move(jnode);
    }
    XQ_ASSIGN_OR_RETURN(
        plan, apply_bindable(std::move(plan), step.after_rows, step.cost));
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

Result<PlanPtr> CostBasedPlanner::Lower(const LogicalOp& op) {
  const CostModel cm;
  if (op.kind == LogicalKind::kJoin) return LowerJoin(op);
  if (op.kind == LogicalKind::kGet) {
    return Status::Internal("bare Get outside a Join");
  }
  XQ_ASSIGN_OR_RETURN(PlanPtr child, Lower(*op.children[0]));
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
      cost += PriceMaybeParallel(
          cm, options_,
          in_rows * std::log2(std::max(in_rows, 2.0)) * cm.sort_row_log,
          in_rows * cm.sort_row_log * 3.0, node.get());
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
      cost += PriceMaybeParallel(cm, options_, in_rows, 0.0, node.get());
      out_rows = std::max(1.0, in_rows * 0.5);
      break;
    }
    default:
      return Status::Internal("unexpected logical node in unary chain");
  }
  node->est_rows = out_rows;
  node->est_cost = cost;
  node->children.push_back(std::move(child));
  return PlanPtr(std::move(node));
}

}  // namespace xomatiq::sql
