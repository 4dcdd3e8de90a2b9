#include "sql/planner.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "common/metrics.h"
#include "common/trace.h"
#include "sql/expr_eval.h"
#include "sql/logical_plan.h"
#include "sql/physical_planner.h"
#include "sql/rewriter.h"

namespace xomatiq::sql {

using common::Result;
using common::Status;
using rel::IndexEntry;
using rel::IndexKind;
using rel::Schema;
using rel::Value;
using rel::ValueType;

Result<PlanPtr> Planner::PlanSelect(const SelectStmt& stmt) {
  if (options_.mode == PlannerMode::kAuto ||
      options_.mode == PlannerMode::kCostBased) {
    if (AllTablesFresh(stmt)) {
      auto plan = PlanSelectCostBased(stmt);
      if (plan.ok()) return plan;
      if (options_.mode == PlannerMode::kCostBased) return plan;
      common::MetricsRegistry::Global()
          .GetCounter("sql.opt.fallback")
          ->Inc();
    } else if (options_.mode == PlannerMode::kCostBased) {
      return Status::InvalidArgument(
          "cost-based planning requires fresh statistics; run ANALYZE");
    }
  }
  common::MetricsRegistry::Global()
      .GetCounter("sql.opt.rule_based_plans")
      ->Inc();
  return PlanSelectRuleBased(stmt);
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

Result<PlanPtr> Planner::PlanSelectCostBased(const SelectStmt& stmt) {
  common::Histogram* opt_hist =
      common::MetricsRegistry::Global().GetHistogram("sql.stage.optimize");
  common::TraceSpan span("sql.optimize", opt_hist);
  Binder binder(db_);
  XQ_ASSIGN_OR_RETURN(LogicalPtr logical, binder.BindSelect(stmt));
  XQ_RETURN_IF_ERROR(RewriteLogicalPlan(logical.get()));
  CostBasedPlanner lowering(db_, options_);
  XQ_ASSIGN_OR_RETURN(PlanPtr plan, lowering.Lower(*logical));
  XQ_RETURN_IF_ERROR(CompilePlanPrograms(plan.get()));
  common::MetricsRegistry::Global()
      .GetCounter("sql.opt.cost_based_plans")
      ->Inc();
  if (lowering.reordered()) {
    common::MetricsRegistry::Global()
        .GetCounter("sql.opt.join_reorders")
        ->Inc();
  }
  return plan;
}

namespace {

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

// Rule-based per-operator DOP: pipeline breakers fed by a big base input
// get a parallel degree; small inputs stay serial. The annotation is
// permission, not obligation — the executor re-checks actual row counts
// and pool width at run time before fanning out. Aggregates always stream
// serially: merging per-morsel partials lost to the serial fold.
void AnnotateParallelOps(PlanNode* node, const rel::Database* db,
                         const PlannerOptions& options) {
  for (const PlanPtr& child : node->children) {
    AnnotateParallelOps(child.get(), db, options);
  }
  switch (node->kind) {
    case PlanKind::kHashJoin:
    case PlanKind::kSort:
    case PlanKind::kDistinct:
      break;
    default:
      return;
  }
  if (LargestBaseInput(*node, db) < options.parallel_scan_threshold) return;
  int degree = options.parallel_degree;
  if (degree <= 0) {
    degree = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (degree >= 2) node->parallel_degree = degree;
}

}  // namespace

Result<PlanPtr> Planner::PlanSelectRuleBased(const SelectStmt& stmt) {
  // 1. Table list in FROM order.
  std::vector<TableRef> tables = stmt.from;
  for (const JoinClause& j : stmt.joins) tables.push_back(j.table);
  if (tables.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  // Alias uniqueness.
  for (size_t i = 0; i < tables.size(); ++i) {
    for (size_t j = i + 1; j < tables.size(); ++j) {
      if (tables[i].alias == tables[j].alias) {
        return Status::InvalidArgument("duplicate table alias: " +
                                       tables[i].alias);
      }
    }
  }

  // 2. Conjunct pool from WHERE and JOIN ... ON.
  std::vector<ExprPtr> conjuncts;
  if (stmt.where) SplitConjuncts(stmt.where->Clone(), &conjuncts);
  for (const JoinClause& j : stmt.joins) {
    if (j.on) SplitConjuncts(j.on->Clone(), &conjuncts);
  }

  // 3. Left-deep join tree with greedy join ordering: after seeding with
  // the first FROM table, always prefer a not-yet-placed table that has a
  // cross-table conjunct linking it to the accumulated plan (equi-join or
  // range filter); fall back to the FROM order (a true cross product)
  // only when no table connects. This keeps chained joins — like the
  // XQ2SQL containment chains — from degenerating into early cross
  // products.
  std::vector<bool> placed(tables.size(), false);
  std::vector<Schema> qualified_schemas;
  qualified_schemas.reserve(tables.size());
  for (const TableRef& ref : tables) {
    XQ_ASSIGN_OR_RETURN(const rel::Table* t, db_->GetTable(ref.table));
    qualified_schemas.push_back(t->schema().Qualified(ref.alias));
  }
  // True when conjunct `e` spans the current plan and candidate `i` (it
  // binds against their concatenation but against neither side alone).
  auto links_to_plan = [&](const Schema& plan_schema, size_t i) {
    Schema combined = Schema::Concat(plan_schema, qualified_schemas[i]);
    for (const ExprPtr& c : conjuncts) {
      if (c == nullptr) continue;
      if (!BindableAgainst(*c, combined)) continue;
      if (BindableAgainst(*c, plan_schema)) continue;
      if (BindableAgainst(*c, qualified_schemas[i])) continue;
      return true;
    }
    return false;
  };

  // Seed score: how selective an index-driven access path this table
  // would get from its single-table predicates. Keyword postings are the
  // sharpest filter, then point equality, then ranges. Each join
  // component starts from its best-scoring table so selective predicates
  // apply before fan-out (e.g. the inverted-index scan seeds the keyword
  // legs of the paper's Fig 8 instead of the document table).
  auto seed_score = [&](size_t i) {
    std::vector<EqPred> eqs;
    std::vector<RangePred> ranges;
    std::vector<ContainsPred> contains;
    for (const ExprPtr& c : conjuncts) {
      if (c == nullptr) continue;
      if (!BindableAgainst(*c, qualified_schemas[i])) continue;
      ClassifyPredicate(*c, 0, &eqs, &ranges, &contains);
    }
    const auto* indexes = db_->IndexesOn(tables[i].table);
    if (indexes == nullptr) return 0;
    int score = 0;
    for (const auto& entry : *indexes) {
      if (entry->def.kind == IndexKind::kInverted) {
        for (const ContainsPred& cp : contains) {
          if (cp.bare_column == entry->def.columns[0]) score = std::max(score, 3);
        }
        continue;
      }
      for (const EqPred& ep : eqs) {
        if (ep.bare_column == entry->def.columns[0]) score = std::max(score, 2);
      }
      if (entry->def.kind == IndexKind::kBTree &&
          entry->def.columns.size() == 1) {
        for (const RangePred& rp : ranges) {
          if (rp.bare_column == entry->def.columns[0]) {
            score = std::max(score, 1);
          }
        }
      }
    }
    return score;
  };

  // Plans of finished join components; a cross product between components
  // happens only after each side is fully filtered, so disconnected query
  // parts never multiply unfiltered cardinalities.
  std::vector<PlanPtr> components;
  PlanPtr plan;
  for (size_t added = 0; added < tables.size(); ++added) {
    size_t next = tables.size();
    if (options_.mode == PlannerMode::kFromOrder) {
      // Reordering disabled: take tables in literal FROM order (the
      // worst-case baseline the optimizer benches measure against).
      for (size_t i = 0; i < tables.size(); ++i) {
        if (!placed[i]) {
          next = i;
          break;
        }
      }
    } else {
      if (plan != nullptr) {
        for (size_t i = 0; i < tables.size(); ++i) {
          if (!placed[i] && links_to_plan(plan->schema, i)) {
            next = i;
            break;
          }
        }
        if (next == tables.size()) {
          // No table connects: the current component is complete.
          components.push_back(std::move(plan));
          plan = nullptr;
        }
      }
      if (plan == nullptr) {
        int best = -1;
        for (size_t i = 0; i < tables.size(); ++i) {
          if (!placed[i]) {
            int score = seed_score(i);
            if (score > best) {
              best = score;
              next = i;
            }
          }
        }
      }
    }
    placed[next] = true;
    const TableRef& ref = tables[next];
    XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(ref.table));
    Schema qualified = table->schema().Qualified(ref.alias);

    // Classify single-table conjuncts for this table.
    std::vector<EqPred> eqs;
    std::vector<RangePred> ranges;
    std::vector<ContainsPred> contains;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (conjuncts[i] == nullptr) continue;
      if (!BindableAgainst(*conjuncts[i], qualified)) continue;
      ClassifyPredicate(*conjuncts[i], i, &eqs, &ranges, &contains);
    }

    // Choose access path: longest equality prefix over any index wins;
    // then single-column range on a btree; then CONTAINS via inverted
    // index; else sequential scan.
    PlanPtr access = std::make_unique<PlanNode>();
    access->table = ref.table;
    access->alias = ref.alias;
    access->schema = qualified;
    access->kind = PlanKind::kSeqScan;

    const auto* indexes = db_->IndexesOn(ref.table);
    size_t best_eq_len = 0;
    const IndexEntry* best_eq_index = nullptr;
    std::vector<Value> best_eq_key;
    std::vector<size_t> best_eq_conjuncts;
    const IndexEntry* range_index = nullptr;
    const RangePred* range_pred = nullptr;
    const IndexEntry* kw_index = nullptr;
    const ContainsPred* kw_pred = nullptr;
    if (indexes != nullptr) {
      for (const auto& entry : *indexes) {
        if (entry->def.kind == IndexKind::kInverted) {
          for (const ContainsPred& cp : contains) {
            if (cp.bare_column == entry->def.columns[0]) {
              kw_index = entry.get();
              kw_pred = &cp;
            }
          }
          continue;
        }
        // Equality prefix match.
        std::vector<Value> key;
        std::vector<size_t> used;
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
        }
        bool usable = !key.empty() &&
                      (entry->def.kind == IndexKind::kBTree ||
                       key.size() == entry->def.columns.size());
        if (usable && key.size() > best_eq_len) {
          best_eq_len = key.size();
          best_eq_index = entry.get();
          best_eq_key = std::move(key);
          best_eq_conjuncts = std::move(used);
        }
        // Range on a single-column btree.
        if (entry->def.kind == IndexKind::kBTree &&
            entry->def.columns.size() == 1 && range_index == nullptr) {
          for (const RangePred& rp : ranges) {
            if (rp.bare_column == entry->def.columns[0]) {
              range_index = entry.get();
              range_pred = &rp;
              break;
            }
          }
        }
      }
    }

    if (best_eq_index != nullptr) {
      access->kind = PlanKind::kIndexScan;
      access->index = best_eq_index;
      access->eq_key = std::move(best_eq_key);
      for (size_t ci : best_eq_conjuncts) conjuncts[ci] = nullptr;
    } else if (range_index != nullptr) {
      access->kind = PlanKind::kIndexScan;
      access->index = range_index;
      access->lo = range_pred->lo;
      access->lo_inclusive = range_pred->lo_inclusive;
      access->hi = range_pred->hi;
      access->hi_inclusive = range_pred->hi_inclusive;
      if (!range_pred->keep_conjunct) {
        conjuncts[range_pred->conjunct_index] = nullptr;
      }
    } else if (kw_index != nullptr) {
      access->kind = PlanKind::kKeywordScan;
      access->index = kw_index;
      access->keyword = kw_pred->keyword;
      conjuncts[kw_pred->conjunct_index] = nullptr;
    } else if (table->num_slots() >= options_.parallel_scan_threshold) {
      int degree = options_.parallel_degree;
      if (degree <= 0) {
        degree = static_cast<int>(std::thread::hardware_concurrency());
      }
      if (degree >= 2) {
        access->kind = PlanKind::kParallelSeqScan;
        access->parallel_degree = degree;
      }
    }

    if (plan == nullptr) {
      plan = std::move(access);
    } else {
      // Join `access` to the accumulated plan. Find equi-join conjuncts
      // linking the two sides.
      struct EquiJoin {
        ExprPtr left_key;   // binds against plan->schema
        ExprPtr right_key;  // binds against qualified
        size_t conjunct_index;
        std::string right_bare;
      };
      std::vector<EquiJoin> equis;
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (conjuncts[i] == nullptr) continue;
        const Expr& e = *conjuncts[i];
        if (e.kind != ExprKind::kBinary || e.bin_op != BinaryOp::kEq) {
          continue;
        }
        bool l_on_left = BindableAgainst(*e.left, plan->schema);
        bool l_on_right = BindableAgainst(*e.left, qualified);
        bool r_on_left = BindableAgainst(*e.right, plan->schema);
        bool r_on_right = BindableAgainst(*e.right, qualified);
        EquiJoin ej;
        if (l_on_left && !l_on_right && r_on_right && !r_on_left) {
          ej.left_key = e.left->Clone();
          ej.right_key = e.right->Clone();
        } else if (r_on_left && !r_on_right && l_on_right && !l_on_left) {
          ej.left_key = e.right->Clone();
          ej.right_key = e.left->Clone();
        } else {
          continue;
        }
        ej.conjunct_index = i;
        if (ej.right_key->kind == ExprKind::kColumnRef) {
          ej.right_bare = BareName(ej.right_key->column_name);
        }
        equis.push_back(std::move(ej));
      }

      auto join = std::make_unique<PlanNode>();
      join->schema = Schema::Concat(plan->schema, qualified);
      // Prefer index-nested-loop when the inner side is a plain scan (no
      // consumed predicate) and an index exists on a join column.
      const IndexEntry* inl_index = nullptr;
      const EquiJoin* inl_equi = nullptr;
      if (access->kind == PlanKind::kSeqScan ||
          access->kind == PlanKind::kParallelSeqScan) {
        for (const EquiJoin& ej : equis) {
          if (ej.right_bare.empty()) continue;
          const IndexEntry* idx =
              db_->FindIndex(ref.table, {ej.right_bare}, IndexKind::kHash);
          if (idx == nullptr) {
            idx =
                db_->FindIndex(ref.table, {ej.right_bare}, IndexKind::kBTree);
          }
          if (idx != nullptr) {
            inl_index = idx;
            inl_equi = &ej;
            break;
          }
        }
      }
      if (inl_index != nullptr) {
        join->kind = PlanKind::kIndexNLJoin;
        join->table = ref.table;
        join->alias = ref.alias;
        join->index = inl_index;
        ExprPtr outer_key = inl_equi->left_key->Clone();
        XQ_RETURN_IF_ERROR(Bind(outer_key.get(), plan->schema));
        join->outer_key_exprs.push_back(std::move(outer_key));
        conjuncts[inl_equi->conjunct_index] = nullptr;
        join->children.push_back(std::move(plan));
      } else if (!equis.empty()) {
        join->kind = PlanKind::kHashJoin;
        for (EquiJoin& ej : equis) {
          XQ_RETURN_IF_ERROR(Bind(ej.left_key.get(), plan->schema));
          XQ_RETURN_IF_ERROR(Bind(ej.right_key.get(), qualified));
          join->left_keys.push_back(std::move(ej.left_key));
          join->right_keys.push_back(std::move(ej.right_key));
          conjuncts[ej.conjunct_index] = nullptr;
        }
        join->children.push_back(std::move(plan));
        join->children.push_back(std::move(access));
      } else {
        join->kind = PlanKind::kNestedLoopJoin;
        join->children.push_back(std::move(plan));
        join->children.push_back(std::move(access));
      }
      if (join->kind == PlanKind::kIndexNLJoin) {
        // Inner side is accessed via the index; the access node is unused
        // (its schema was already folded into the join schema).
      }
      plan = std::move(join);
    }

    // Apply every not-yet-consumed conjunct that now binds.
    std::vector<ExprPtr> applicable;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (conjuncts[i] == nullptr) continue;
      if (BindableAgainst(*conjuncts[i], plan->schema)) {
        applicable.push_back(std::move(conjuncts[i]));
        conjuncts[i] = nullptr;
      }
    }
    if (!applicable.empty()) {
      ExprPtr pred = AndAll(std::move(applicable));
      XQ_RETURN_IF_ERROR(Bind(pred.get(), plan->schema));
      auto filter = std::make_unique<PlanNode>();
      filter->kind = PlanKind::kFilter;
      filter->schema = plan->schema;
      filter->predicate = std::move(pred);
      filter->children.push_back(std::move(plan));
      plan = std::move(filter);
    }
  }
  components.push_back(std::move(plan));

  // Cross-join the filtered components (left-to-right), applying any
  // conjunct that becomes bindable on the combined schema.
  plan = std::move(components[0]);
  for (size_t c = 1; c < components.size(); ++c) {
    auto join = std::make_unique<PlanNode>();
    join->kind = PlanKind::kNestedLoopJoin;
    join->schema = Schema::Concat(plan->schema, components[c]->schema);
    join->children.push_back(std::move(plan));
    join->children.push_back(std::move(components[c]));
    plan = std::move(join);
    std::vector<ExprPtr> applicable;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (conjuncts[i] == nullptr) continue;
      if (BindableAgainst(*conjuncts[i], plan->schema)) {
        applicable.push_back(std::move(conjuncts[i]));
        conjuncts[i] = nullptr;
      }
    }
    if (!applicable.empty()) {
      ExprPtr pred = AndAll(std::move(applicable));
      XQ_RETURN_IF_ERROR(Bind(pred.get(), plan->schema));
      auto filter = std::make_unique<PlanNode>();
      filter->kind = PlanKind::kFilter;
      filter->schema = plan->schema;
      filter->predicate = std::move(pred);
      filter->children.push_back(std::move(plan));
      plan = std::move(filter);
    }
  }

  for (const ExprPtr& c : conjuncts) {
    if (c != nullptr) {
      return Status::InvalidArgument("predicate references unknown columns: " +
                                     c->ToString());
    }
  }

  // 4. Aggregation.
  bool has_agg = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    if (item.expr && ContainsAggregate(*item.expr)) has_agg = true;
  }
  if (stmt.having && ContainsAggregate(*stmt.having)) has_agg = true;

  // Working copies of the output expressions, rewritten when aggregating.
  std::vector<ExprPtr> out_exprs;
  std::vector<std::string> out_names;
  std::vector<ExprPtr> order_exprs;
  ExprPtr having;

  for (const SelectItem& item : stmt.items) {
    if (item.is_star) {
      if (has_agg) {
        return Status::InvalidArgument("SELECT * cannot mix with aggregates");
      }
      for (const rel::Column& col : plan->schema.columns()) {
        out_exprs.push_back(MakeColumnRef(col.name));
        out_names.push_back(BareName(col.name));
      }
      continue;
    }
    out_exprs.push_back(item.expr->Clone());
    if (!item.alias.empty()) {
      out_names.push_back(item.alias);
    } else if (item.expr->kind == ExprKind::kColumnRef) {
      out_names.push_back(BareName(item.expr->column_name));
    } else {
      out_names.push_back(item.expr->ToString());
    }
  }
  for (const OrderItem& o : stmt.order_by) {
    order_exprs.push_back(o.expr->Clone());
  }
  if (stmt.having) having = stmt.having->Clone();

  if (has_agg) {
    auto agg_node = std::make_unique<PlanNode>();
    agg_node->kind = PlanKind::kAggregate;
    Schema agg_schema;
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      ExprPtr g = stmt.group_by[i]->Clone();
      XQ_RETURN_IF_ERROR(Bind(g.get(), plan->schema));
      agg_schema.AddColumn({"_grp" + std::to_string(i),
                            InferType(*g, plan->schema), false});
      agg_node->group_exprs.push_back(std::move(g));
    }
    // Rewrite output/order/having expressions: group expressions become
    // _grpN refs, aggregate calls become _aggN refs (collected in order).
    std::vector<std::string> group_strings;
    for (const ExprPtr& g : stmt.group_by) {
      group_strings.push_back(g->ToString());
    }
    std::vector<AggSpec>* aggs = &agg_node->aggs;
    Schema* agg_schema_ptr = &agg_schema;
    const Schema& input_schema = plan->schema;
    // Recursive rewriter.
    std::function<Result<ExprPtr>(ExprPtr)> rewrite =
        [&](ExprPtr e) -> Result<ExprPtr> {
      std::string repr = e->ToString();
      for (size_t i = 0; i < group_strings.size(); ++i) {
        if (repr == group_strings[i]) {
          return MakeColumnRef("_grp" + std::to_string(i));
        }
      }
      if (e->kind == ExprKind::kAggregate) {
        AggSpec spec;
        spec.func = e->agg;
        if (e->left) {
          spec.arg = e->left->Clone();
          XQ_RETURN_IF_ERROR(Bind(spec.arg.get(), input_schema));
        }
        size_t idx = aggs->size();
        ValueType t = InferType(*e, input_schema);
        aggs->push_back(std::move(spec));
        agg_schema_ptr->AddColumn({"_agg" + std::to_string(idx), t, false});
        return MakeColumnRef("_agg" + std::to_string(idx));
      }
      if (e->kind == ExprKind::kColumnRef) {
        return Status::InvalidArgument(
            "column " + e->column_name +
            " must appear in GROUP BY or inside an aggregate");
      }
      if (e->left) {
        XQ_ASSIGN_OR_RETURN(e->left, rewrite(std::move(e->left)));
      }
      if (e->right) {
        XQ_ASSIGN_OR_RETURN(e->right, rewrite(std::move(e->right)));
      }
      if (e->extra) {
        XQ_ASSIGN_OR_RETURN(e->extra, rewrite(std::move(e->extra)));
      }
      for (ExprPtr& item : e->list) {
        XQ_ASSIGN_OR_RETURN(item, rewrite(std::move(item)));
      }
      return e;
    };
    for (ExprPtr& e : out_exprs) {
      XQ_ASSIGN_OR_RETURN(e, rewrite(std::move(e)));
    }
    for (ExprPtr& e : order_exprs) {
      XQ_ASSIGN_OR_RETURN(e, rewrite(std::move(e)));
    }
    if (having) {
      XQ_ASSIGN_OR_RETURN(having, rewrite(std::move(having)));
    }
    agg_node->schema = std::move(agg_schema);
    agg_node->children.push_back(std::move(plan));
    plan = std::move(agg_node);
    if (having) {
      XQ_RETURN_IF_ERROR(Bind(having.get(), plan->schema));
      auto filter = std::make_unique<PlanNode>();
      filter->kind = PlanKind::kFilter;
      filter->schema = plan->schema;
      filter->predicate = std::move(having);
      filter->children.push_back(std::move(plan));
      plan = std::move(filter);
    }
  } else if (stmt.having) {
    return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
  }

  // 5. ORDER BY: sort before projection when the keys bind against the
  // pre-projection schema, otherwise after (keys naming select aliases).
  bool sort_pre = !order_exprs.empty();
  for (const ExprPtr& e : order_exprs) {
    if (!BindableAgainst(*e, plan->schema)) sort_pre = false;
  }
  auto make_sort = [&](PlanPtr child,
                       std::vector<ExprPtr> keys) -> Result<PlanPtr> {
    auto sort = std::make_unique<PlanNode>();
    sort->kind = PlanKind::kSort;
    sort->schema = child->schema;
    for (size_t i = 0; i < keys.size(); ++i) {
      XQ_RETURN_IF_ERROR(Bind(keys[i].get(), child->schema));
      SortKey sk;
      sk.expr = std::move(keys[i]);
      sk.desc = stmt.order_by[i].desc;
      sort->sort_keys.push_back(std::move(sk));
    }
    sort->children.push_back(std::move(child));
    return PlanPtr(std::move(sort));
  };
  if (sort_pre) {
    XQ_ASSIGN_OR_RETURN(plan, make_sort(std::move(plan),
                                        std::move(order_exprs)));
    order_exprs.clear();
  }

  // 6. Projection.
  auto project = std::make_unique<PlanNode>();
  project->kind = PlanKind::kProject;
  Schema out_schema;
  for (size_t i = 0; i < out_exprs.size(); ++i) {
    XQ_RETURN_IF_ERROR(Bind(out_exprs[i].get(), plan->schema));
    out_schema.AddColumn(
        {out_names[i], InferType(*out_exprs[i], plan->schema), false});
    project->project_exprs.push_back(std::move(out_exprs[i]));
  }
  project->schema = std::move(out_schema);
  project->children.push_back(std::move(plan));
  plan = std::move(project);

  if (!order_exprs.empty()) {
    XQ_ASSIGN_OR_RETURN(
        plan, make_sort(std::move(plan), std::move(order_exprs)));
  }

  // 7. DISTINCT.
  if (stmt.distinct) {
    auto distinct = std::make_unique<PlanNode>();
    distinct->kind = PlanKind::kDistinct;
    distinct->schema = plan->schema;
    distinct->children.push_back(std::move(plan));
    plan = std::move(distinct);
  }

  // 8. LIMIT / OFFSET.
  if (stmt.limit.has_value() || stmt.offset.has_value()) {
    auto limit = std::make_unique<PlanNode>();
    limit->kind = PlanKind::kLimit;
    limit->schema = plan->schema;
    limit->limit = stmt.limit.value_or(-1);
    limit->offset = stmt.offset.value_or(0);
    limit->children.push_back(std::move(plan));
    plan = std::move(limit);
  }

  AnnotateParallelOps(plan.get(), db_, options_);
  XQ_RETURN_IF_ERROR(CompilePlanPrograms(plan.get()));
  return plan;
}

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

}  // namespace

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

}  // namespace xomatiq::sql
