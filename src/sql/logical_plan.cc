#include "sql/logical_plan.h"

#include <functional>

#include "sql/expr_eval.h"
#include "sql/rewriter.h"

namespace xomatiq::sql {

using common::Result;
using common::Status;
using rel::Schema;

std::string_view LogicalKindName(LogicalKind kind) {
  switch (kind) {
    case LogicalKind::kGet: return "Get";
    case LogicalKind::kJoin: return "Join";
    case LogicalKind::kFilter: return "Filter";
    case LogicalKind::kProject: return "Project";
    case LogicalKind::kAggregate: return "Aggregate";
    case LogicalKind::kSort: return "Sort";
    case LogicalKind::kLimit: return "Limit";
    case LogicalKind::kDistinct: return "Distinct";
  }
  return "?";
}

std::string LogicalOp::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + std::string(LogicalKindName(kind));
  switch (kind) {
    case LogicalKind::kGet:
      out += " " + table + (alias != table ? " AS " + alias : "");
      for (size_t i = 0; i < pushed.size(); ++i) {
        out += i == 0 ? " [" : " AND ";
        out += pushed[i]->ToString();
        if (i + 1 == pushed.size()) out += "]";
      }
      break;
    case LogicalKind::kJoin:
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        out += i == 0 ? " on " : " AND ";
        out += conjuncts[i]->ToString();
      }
      break;
    case LogicalKind::kFilter:
      out += " " + predicate->ToString();
      break;
    case LogicalKind::kProject: {
      out += " [";
      for (size_t i = 0; i < names.size(); ++i) {
        if (i > 0) out += ", ";
        out += names[i];
      }
      out += "]";
      break;
    }
    case LogicalKind::kAggregate:
      out += " groups=" + std::to_string(group_exprs.size()) +
             " aggs=" + std::to_string(aggs.size());
      break;
    case LogicalKind::kSort: {
      out += " by ";
      for (size_t i = 0; i < keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += keys[i].expr->ToString();
        if (keys[i].desc) out += " DESC";
      }
      break;
    }
    case LogicalKind::kLimit:
      out += " " + std::to_string(limit);
      if (offset > 0) out += " OFFSET " + std::to_string(offset);
      break;
    case LogicalKind::kDistinct:
      break;
  }
  out += "\n";
  for (const LogicalPtr& child : children) {
    out += child->ToString(indent + 1);
  }
  return out;
}

Result<LogicalPtr> Binder::BindSelect(const SelectStmt& stmt) {
  // Relations in FROM order; aliases must be unique.
  std::vector<TableRef> tables = stmt.from;
  for (const JoinClause& j : stmt.joins) tables.push_back(j.table);
  if (tables.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  for (size_t i = 0; i < tables.size(); ++i) {
    for (size_t j = i + 1; j < tables.size(); ++j) {
      if (tables[i].alias == tables[j].alias) {
        return Status::InvalidArgument("duplicate table alias: " +
                                       tables[i].alias);
      }
    }
  }

  auto join = std::make_unique<LogicalOp>();
  join->kind = LogicalKind::kJoin;
  for (const TableRef& ref : tables) {
    XQ_ASSIGN_OR_RETURN(const rel::Table* t, db_->GetTable(ref.table));
    auto get = std::make_unique<LogicalOp>();
    get->kind = LogicalKind::kGet;
    get->table = ref.table;
    get->alias = ref.alias;
    get->schema = t->schema().Qualified(ref.alias);
    join->schema = Schema::Concat(join->schema, get->schema);
    join->children.push_back(std::move(get));
  }
  if (stmt.where) SplitConjuncts(stmt.where->Clone(), &join->conjuncts);
  for (const JoinClause& j : stmt.joins) {
    if (j.on) SplitConjuncts(j.on->Clone(), &join->conjuncts);
  }
  for (const ExprPtr& c : join->conjuncts) {
    if (!BindableAgainst(*c, join->schema)) {
      return Status::InvalidArgument("predicate references unknown columns: " +
                                     c->ToString());
    }
  }
  LogicalPtr plan = std::move(join);

  // Aggregation detection and output expression working copies. SELECT *
  // expands in FROM order (the kJoin schema), independent of the physical
  // join order the lowering later picks.
  bool has_agg = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    if (item.expr && ContainsAggregate(*item.expr)) has_agg = true;
  }
  if (stmt.having && ContainsAggregate(*stmt.having)) has_agg = true;

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
    auto agg_node = std::make_unique<LogicalOp>();
    agg_node->kind = LogicalKind::kAggregate;
    Schema agg_schema;
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      ExprPtr g = stmt.group_by[i]->Clone();
      XQ_RETURN_IF_ERROR(Bind(g.get(), plan->schema));
      agg_schema.AddColumn({"_grp" + std::to_string(i),
                            InferType(*g, plan->schema), false});
      agg_node->group_exprs.push_back(std::move(g));
    }
    std::vector<std::string> group_strings;
    for (const ExprPtr& g : stmt.group_by) {
      group_strings.push_back(g->ToString());
    }
    std::vector<AggSpec>* aggs = &agg_node->aggs;
    Schema* agg_schema_ptr = &agg_schema;
    const Schema& input_schema = plan->schema;
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
        rel::ValueType t = InferType(*e, input_schema);
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
      auto filter = std::make_unique<LogicalOp>();
      filter->kind = LogicalKind::kFilter;
      filter->schema = plan->schema;
      filter->predicate = std::move(having);
      filter->children.push_back(std::move(plan));
      plan = std::move(filter);
    }
  } else if (stmt.having) {
    return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
  }

  // ORDER BY: sort before projection when the keys bind against the
  // pre-projection schema, otherwise after (keys naming select aliases).
  bool sort_pre = !order_exprs.empty();
  for (const ExprPtr& e : order_exprs) {
    if (!BindableAgainst(*e, plan->schema)) sort_pre = false;
  }
  auto make_sort = [&](LogicalPtr child,
                       std::vector<ExprPtr> keys) -> Result<LogicalPtr> {
    auto sort = std::make_unique<LogicalOp>();
    sort->kind = LogicalKind::kSort;
    sort->schema = child->schema;
    for (size_t i = 0; i < keys.size(); ++i) {
      XQ_RETURN_IF_ERROR(Bind(keys[i].get(), child->schema));
      SortKey sk;
      sk.expr = std::move(keys[i]);
      sk.desc = stmt.order_by[i].desc;
      sort->keys.push_back(std::move(sk));
    }
    sort->children.push_back(std::move(child));
    return LogicalPtr(std::move(sort));
  };
  if (sort_pre) {
    XQ_ASSIGN_OR_RETURN(plan,
                        make_sort(std::move(plan), std::move(order_exprs)));
    order_exprs.clear();
  }

  auto project = std::make_unique<LogicalOp>();
  project->kind = LogicalKind::kProject;
  Schema out_schema;
  for (size_t i = 0; i < out_exprs.size(); ++i) {
    XQ_RETURN_IF_ERROR(Bind(out_exprs[i].get(), plan->schema));
    out_schema.AddColumn(
        {out_names[i], InferType(*out_exprs[i], plan->schema), false});
    project->exprs.push_back(std::move(out_exprs[i]));
  }
  project->names = std::move(out_names);
  project->schema = std::move(out_schema);
  project->children.push_back(std::move(plan));
  plan = std::move(project);

  if (!order_exprs.empty()) {
    XQ_ASSIGN_OR_RETURN(plan,
                        make_sort(std::move(plan), std::move(order_exprs)));
  }

  if (stmt.distinct) {
    auto distinct = std::make_unique<LogicalOp>();
    distinct->kind = LogicalKind::kDistinct;
    distinct->schema = plan->schema;
    distinct->children.push_back(std::move(plan));
    plan = std::move(distinct);
  }

  if (stmt.limit.has_value() || stmt.offset.has_value()) {
    auto limit = std::make_unique<LogicalOp>();
    limit->kind = LogicalKind::kLimit;
    limit->schema = plan->schema;
    limit->limit = stmt.limit.value_or(-1);
    limit->offset = stmt.offset.value_or(0);
    limit->children.push_back(std::move(plan));
    plan = std::move(limit);
  }
  return plan;
}

namespace {

void FoldList(std::vector<ExprPtr>* exprs) {
  for (ExprPtr& e : *exprs) e = FoldConstants(std::move(e));
}

}  // namespace

Status RewriteLogicalPlan(LogicalOp* op) {
  switch (op->kind) {
    case LogicalKind::kFilter:
      op->predicate = FoldConstants(std::move(op->predicate));
      break;
    case LogicalKind::kProject:
      FoldList(&op->exprs);
      break;
    case LogicalKind::kAggregate:
      FoldList(&op->group_exprs);
      for (AggSpec& a : op->aggs) {
        if (a.arg) a.arg = FoldConstants(std::move(a.arg));
      }
      break;
    case LogicalKind::kSort:
      for (SortKey& k : op->keys) k.expr = FoldConstants(std::move(k.expr));
      break;
    case LogicalKind::kJoin: {
      FoldList(&op->conjuncts);
      // Predicate pushdown: a conjunct that binds against a single child
      // Get moves into that Get's `pushed` list (column-free conjuncts go
      // to the first child, which applies them earliest). The remaining
      // pool holds only genuinely cross-relation predicates.
      std::vector<ExprPtr> remaining;
      for (ExprPtr& c : op->conjuncts) {
        size_t home = op->children.size();
        size_t bind_count = 0;
        for (size_t i = 0; i < op->children.size(); ++i) {
          if (BindableAgainst(*c, op->children[i]->schema)) {
            ++bind_count;
            if (home == op->children.size()) home = i;
          }
        }
        // bind_count > 1 means the conjunct references no columns at all
        // (a folded constant); it still pushes to the first child.
        if (home < op->children.size()) {
          op->children[home]->pushed.push_back(std::move(c));
        } else {
          remaining.push_back(std::move(c));
        }
      }
      op->conjuncts = std::move(remaining);
      for (LogicalPtr& child : op->children) {
        FoldList(&child->pushed);
      }
      break;
    }
    default:
      break;
  }
  for (LogicalPtr& child : op->children) {
    if (child->kind != LogicalKind::kGet) {
      XQ_RETURN_IF_ERROR(RewriteLogicalPlan(child.get()));
    }
  }
  return Status::OK();
}

}  // namespace xomatiq::sql
