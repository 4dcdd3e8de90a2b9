#include "xomatiq/xq2sql.h"

#include <algorithm>
#include <map>
#include <shared_mutex>

#include "common/string_util.h"
#include "datahounds/generic_schema.h"

namespace xomatiq::xq {

using common::Result;
using common::Status;
using rel::Value;
using rel::ValueType;

namespace {

// --- path dictionary ------------------------------------------------------

struct PathEntry {
  int64_t id;
  std::vector<std::string> segments;  // "/a/b/@c" -> {"a", "b", "@c"}
};

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> segments;
  for (const std::string& piece : common::Split(path, '/')) {
    if (!piece.empty()) segments.push_back(piece);
  }
  return segments;
}

// Matches stored path segments against a step pattern; '//' steps may
// skip any number of segments.
bool MatchSegments(const std::vector<std::string>& segs, size_t si,
                   const std::vector<XqStep>& steps, size_t pi) {
  if (pi == steps.size()) return si == segs.size();
  const XqStep& step = steps[pi];
  std::string target =
      step.is_attribute ? "@" + step.name : step.name;
  if (!step.descendant) {
    return si < segs.size() && segs[si] == target &&
           MatchSegments(segs, si + 1, steps, pi + 1);
  }
  for (size_t k = si; k < segs.size(); ++k) {
    if (segs[k] == target && MatchSegments(segs, k + 1, steps, pi + 1)) {
      return true;
    }
  }
  return false;
}

std::vector<int64_t> ResolvePattern(const std::vector<PathEntry>& dict,
                                    const std::vector<XqStep>& steps) {
  std::vector<int64_t> ids;
  for (const PathEntry& entry : dict) {
    if (MatchSegments(entry.segments, 0, steps, 0)) ids.push_back(entry.id);
  }
  return ids;
}

// --- statement helpers -----------------------------------------------------
//
// The translator builds each statement as a sql::SelectStmt, which the
// engine executes directly; RenderSql derives the display text from it.

sql::ExprPtr Col(const std::string& alias, const char* column) {
  return sql::MakeColumnRef(alias + "." + column);
}

sql::ExprPtr IntLit(int64_t v) { return sql::MakeLiteral(Value::Int(v)); }

sql::BinaryOp CmpOp(const std::string& op) {
  if (op == "=") return sql::BinaryOp::kEq;
  if (op == "!=") return sql::BinaryOp::kNe;
  if (op == "<") return sql::BinaryOp::kLt;
  if (op == "<=") return sql::BinaryOp::kLe;
  if (op == ">") return sql::BinaryOp::kGt;
  if (op == ">=") return sql::BinaryOp::kGe;
  // The XQ parser only admits the six operators above; anything else
  // would already have been rejected upstream.
  return sql::BinaryOp::kEq;
}

// --- DNF normalization ------------------------------------------------------

struct Leaf {
  const XqCond* cond;
  bool negated;
};

Status ToDnf(const XqCond& cond, bool negated,
             std::vector<std::vector<Leaf>>* out) {
  switch (cond.kind) {
    case XqCondKind::kNot:
      return ToDnf(*cond.children[0], !negated, out);
    case XqCondKind::kAnd:
    case XqCondKind::kOr: {
      bool is_or = (cond.kind == XqCondKind::kOr) != negated;
      if (is_or) {
        // Union of children's disjuncts.
        for (const XqCondPtr& child : cond.children) {
          XQ_RETURN_IF_ERROR(ToDnf(*child, negated, out));
        }
        return Status::OK();
      }
      // AND: cross product of children's disjunct sets.
      std::vector<std::vector<Leaf>> acc{{}};
      for (const XqCondPtr& child : cond.children) {
        std::vector<std::vector<Leaf>> child_dnf;
        XQ_RETURN_IF_ERROR(ToDnf(*child, negated, &child_dnf));
        std::vector<std::vector<Leaf>> next;
        for (const auto& a : acc) {
          for (const auto& c : child_dnf) {
            std::vector<Leaf> merged = a;
            merged.insert(merged.end(), c.begin(), c.end());
            next.push_back(std::move(merged));
          }
        }
        acc = std::move(next);
        if (acc.size() > 64) {
          return Status::Unsupported(
              "WHERE clause expands to more than 64 disjuncts");
        }
      }
      out->insert(out->end(), std::make_move_iterator(acc.begin()),
                  std::make_move_iterator(acc.end()));
      return Status::OK();
    }
    default:
      out->push_back({Leaf{&cond, negated}});
      return Status::OK();
  }
}

std::string InvertOp(const std::string& op) {
  if (op == "=") return "!=";
  if (op == "!=") return "=";
  if (op == "<") return ">=";
  if (op == "<=") return ">";
  if (op == ">") return "<=";
  if (op == ">=") return "<";
  return op;
}

// --- per-statement builder ---------------------------------------------------

struct VarInfo {
  std::string doc_alias;
  std::string node_alias;
  std::vector<XqStep> binding_steps;
};

class StatementBuilder {
 public:
  StatementBuilder(const std::vector<PathEntry>& dict) : dict_(dict) {}

  void AddFrom(const std::string& table, const std::string& alias) {
    from_.push_back({table, alias});
  }
  // Records one top-level WHERE conjunct.
  void AddWhere(sql::ExprPtr expr) { where_.push_back(std::move(expr)); }

  std::string NewAlias(const char* prefix) {
    return std::string(prefix) + std::to_string(counter_++);
  }

  // Declares a FOR variable: document + node alias with collection and
  // binding-path constraints.
  Status AddBinding(const XqBinding& binding);

  // Emits the node alias for a path (the variable's own node when the
  // path has no steps). Also translates final-step predicates.
  Result<std::string> EmitPathNode(const XqPath& path);

  // Emits a value-table alias joined to `node_alias`.
  std::string EmitValueAlias(const std::string& node_alias, bool numeric);

  const VarInfo* FindVar(const std::string& var) const {
    auto it = vars_.find(var);
    return it == vars_.end() ? nullptr : &it->second;
  }

  // Moves the accumulated FROM/WHERE state into a SelectStmt. Call once.
  sql::SelectStmt BuildStmt(std::vector<sql::SelectItem> items,
                            const std::string& order_by);

 private:
  // Constrains `alias` to nodes matching `pattern`.
  void AddPathConstraint(const std::string& alias,
                         const std::vector<XqStep>& pattern);
  // Constrains `alias` to descendants of `anchor` (attributes included).
  void AddContainment(const std::string& alias, const std::string& anchor,
                      bool include_self);
  Status EmitPredicates(const std::string& node_alias,
                        const std::vector<XqStep>& node_pattern,
                        const std::vector<XqPredicate>& predicates);

  const std::vector<PathEntry>& dict_;
  std::vector<sql::TableRef> from_;
  std::vector<sql::ExprPtr> where_;
  std::map<std::string, VarInfo> vars_;
  int counter_ = 0;
};

void StatementBuilder::AddPathConstraint(const std::string& alias,
                                         const std::vector<XqStep>& pattern) {
  std::vector<int64_t> ids = ResolvePattern(dict_, pattern);
  if (ids.empty()) {
    // No stored path matches: the statement returns no rows. Emit an
    // always-false constraint so the SQL stays valid.
    AddWhere(sql::MakeBinary(sql::BinaryOp::kEq, Col(alias, "path_id"),
                             IntLit(-1)));
    return;
  }
  if (ids.size() == 1) {
    AddWhere(sql::MakeBinary(sql::BinaryOp::kEq, Col(alias, "path_id"),
                             IntLit(ids[0])));
    return;
  }
  auto in_expr = std::make_unique<sql::Expr>();
  in_expr->kind = sql::ExprKind::kInList;
  in_expr->left = Col(alias, "path_id");
  for (int64_t id : ids) in_expr->list.push_back(IntLit(id));
  AddWhere(std::move(in_expr));
}

void StatementBuilder::AddContainment(const std::string& alias,
                                      const std::string& anchor,
                                      bool include_self) {
  AddWhere(sql::MakeBinary(sql::BinaryOp::kEq, Col(alias, "doc_id"),
                           Col(anchor, "doc_id")));
  AddWhere(sql::MakeBinary(
      include_self ? sql::BinaryOp::kGe : sql::BinaryOp::kGt,
      Col(alias, "ordinal"), Col(anchor, "ordinal")));
  AddWhere(sql::MakeBinary(sql::BinaryOp::kLe, Col(alias, "ordinal"),
                           Col(anchor, "end_ordinal")));
}

Status StatementBuilder::AddBinding(const XqBinding& binding) {
  if (vars_.count(binding.var) > 0) {
    return Status::InvalidArgument("duplicate FOR variable $" + binding.var);
  }
  for (size_t i = 0; i + 1 < binding.steps.size(); ++i) {
    if (!binding.steps[i].predicates.empty()) {
      return Status::Unsupported(
          "predicates on non-final FOR binding steps are not supported");
    }
  }
  VarInfo info;
  info.node_alias = "n_" + binding.var;
  if (!binding.base_var.empty()) {
    // Variable-relative binding: iterate the node set selected from the
    // base variable (same document, containment-joined).
    const VarInfo* base = FindVar(binding.base_var);
    if (base == nullptr) {
      return Status::InvalidArgument("unbound base variable $" +
                                     binding.base_var);
    }
    info.doc_alias = base->doc_alias;
    info.binding_steps = base->binding_steps;
    for (const XqStep& s : binding.steps) info.binding_steps.push_back(s);
    AddFrom(hounds::kNodeTable, info.node_alias);
    AddContainment(info.node_alias, base->node_alias,
                   /*include_self=*/false);
    AddPathConstraint(info.node_alias, info.binding_steps);
    XQ_RETURN_IF_ERROR(EmitPredicates(info.node_alias, info.binding_steps,
                                      binding.steps.back().predicates));
    vars_.emplace(binding.var, std::move(info));
    return Status::OK();
  }
  info.doc_alias = "d_" + binding.var;
  info.binding_steps = binding.steps;
  AddFrom(hounds::kDocumentTable, info.doc_alias);
  AddFrom(hounds::kNodeTable, info.node_alias);
  AddWhere(sql::MakeBinary(sql::BinaryOp::kEq,
                           Col(info.doc_alias, "collection"),
                           sql::MakeLiteral(Value::Text(binding.collection))));
  AddWhere(sql::MakeBinary(sql::BinaryOp::kEq, Col(info.node_alias, "doc_id"),
                           Col(info.doc_alias, "doc_id")));
  AddWhere(sql::MakeBinary(sql::BinaryOp::kEq, Col(info.node_alias, "kind"),
                           IntLit(hounds::kKindElement)));
  AddPathConstraint(info.node_alias, binding.steps);
  XQ_RETURN_IF_ERROR(EmitPredicates(
      info.node_alias, binding.steps,
      binding.steps.empty() ? std::vector<XqPredicate>{}
                            : binding.steps.back().predicates));
  vars_.emplace(binding.var, std::move(info));
  return Status::OK();
}

Status StatementBuilder::EmitPredicates(
    const std::string& node_alias, const std::vector<XqStep>& node_pattern,
    const std::vector<XqPredicate>& predicates) {
  for (const XqPredicate& pred : predicates) {
    if (pred.is_position) {
      AddWhere(sql::MakeBinary(sql::BinaryOp::kEq, Col(node_alias, "name_pos"),
                               IntLit(pred.position)));
      continue;
    }
    std::vector<XqStep> pattern = node_pattern;
    for (const XqStep& s : pred.path) pattern.push_back(s);
    std::string pred_alias = NewAlias("np");
    AddFrom(hounds::kNodeTable, pred_alias);
    AddContainment(pred_alias, node_alias, /*include_self=*/false);
    AddPathConstraint(pred_alias, pattern);
    bool numeric = pred.literal.type() != ValueType::kText &&
                   pred.op != "=" && pred.op != "!=";
    if (pred.literal.type() != ValueType::kText &&
        (pred.op == "=" || pred.op == "!=")) {
      numeric = true;  // numeric equality compares typed values
    }
    std::string value_alias = EmitValueAlias(pred_alias, numeric);
    AddWhere(sql::MakeBinary(CmpOp(pred.op), Col(value_alias, "value"),
                             sql::MakeLiteral(pred.literal)));
  }
  return Status::OK();
}

Result<std::string> StatementBuilder::EmitPathNode(const XqPath& path) {
  const VarInfo* var = FindVar(path.var);
  if (var == nullptr) {
    return Status::InvalidArgument("unbound variable $" + path.var);
  }
  if (path.steps.empty()) return var->node_alias;
  // Materialize a node alias at every predicated step (and at the final
  // step); between materialization points only the path pattern grows.
  std::string anchor = var->node_alias;
  std::vector<XqStep> pattern = var->binding_steps;
  for (size_t i = 0; i < path.steps.size(); ++i) {
    pattern.push_back(path.steps[i]);
    bool need_node =
        !path.steps[i].predicates.empty() || i + 1 == path.steps.size();
    if (!need_node) continue;
    std::string alias = NewAlias("n");
    AddFrom(hounds::kNodeTable, alias);
    AddContainment(alias, anchor, /*include_self=*/false);
    AddPathConstraint(alias, pattern);
    XQ_RETURN_IF_ERROR(
        EmitPredicates(alias, pattern, path.steps[i].predicates));
    anchor = alias;
  }
  return anchor;
}

std::string StatementBuilder::EmitValueAlias(const std::string& node_alias,
                                             bool numeric) {
  std::string alias = NewAlias(numeric ? "num" : "txt");
  AddFrom(numeric ? hounds::kNumberTable : hounds::kTextTable, alias);
  AddWhere(sql::MakeBinary(sql::BinaryOp::kEq, Col(alias, "node_id"),
                           Col(node_alias, "node_id")));
  return alias;
}

sql::SelectStmt StatementBuilder::BuildStmt(
    std::vector<sql::SelectItem> items, const std::string& order_by) {
  sql::SelectStmt stmt;
  stmt.distinct = true;
  stmt.items = std::move(items);
  stmt.from = std::move(from_);
  // Left-associative AND fold, matching how the SQL parser brackets the
  // rendered conjunction.
  for (sql::ExprPtr& e : where_) {
    stmt.where = stmt.where == nullptr
                     ? std::move(e)
                     : sql::MakeBinary(sql::BinaryOp::kAnd,
                                       std::move(stmt.where), std::move(e));
  }
  where_.clear();
  if (!order_by.empty()) {
    sql::OrderItem item;
    item.expr = sql::MakeColumnRef(order_by);
    stmt.order_by.push_back(std::move(item));
  }
  return stmt;
}

// Appends the conjuncts of a left-deep AND chain, joined by " AND ".
void AppendConjuncts(const sql::Expr& e, std::string* out) {
  if (e.kind == sql::ExprKind::kBinary && e.bin_op == sql::BinaryOp::kAnd) {
    AppendConjuncts(*e.left, out);
    *out += " AND ";
    AppendConjuncts(*e.right, out);
    return;
  }
  *out += e.ToString();
}

}  // namespace

std::string RenderSql(const sql::SelectStmt& stmt) {
  std::string out = stmt.distinct ? "SELECT DISTINCT " : "SELECT ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) out += ", ";
    out += stmt.items[i].expr->ToString() + " AS " + stmt.items[i].alias;
  }
  out += " FROM ";
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    if (i > 0) out += ", ";
    out += stmt.from[i].table + " " + stmt.from[i].alias;
  }
  if (stmt.where != nullptr) {
    out += " WHERE ";
    AppendConjuncts(*stmt.where, &out);
  }
  for (size_t i = 0; i < stmt.order_by.size(); ++i) {
    out += i == 0 ? " ORDER BY " : ", ";
    out += stmt.order_by[i].expr->ToString();
  }
  return out;
}

Result<Translation> Xq2SqlTranslator::Translate(const XQueryAst& ast,
                                                uint64_t read_epoch) {
  if (ast.bindings.empty()) {
    return Status::InvalidArgument("query has no FOR bindings");
  }
  for (const XqBinding& binding : ast.bindings) {
    if (binding.base_var.empty() &&
        warehouse_->FindCollection(binding.collection) == nullptr) {
      return Status::NotFound("unknown collection: " + binding.collection);
    }
  }

  // Load the path dictionary once per translation, at the caller's
  // snapshot epoch: a concurrent warehouse load appending new paths is
  // invisible here exactly as it is to the translated statements' reads.
  std::vector<PathEntry> dict;
  XQ_ASSIGN_OR_RETURN(const rel::Table* path_table,
                      warehouse_->db()->GetTable(hounds::kPathTable));
  path_table->Scan(read_epoch, [&](rel::RowId, const rel::Tuple& t) {
    dict.push_back({t[0].AsInt(), SplitPath(t[1].AsText())});
    return true;
  });

  // DNF of the WHERE clause (single empty disjunct when absent).
  std::vector<std::vector<Leaf>> dnf;
  if (ast.where != nullptr) {
    XQ_RETURN_IF_ERROR(ToDnf(*ast.where, /*negated=*/false, &dnf));
  } else {
    dnf.push_back({});
  }

  Translation out;
  out.constructor_name = ast.constructor_name;
  for (const XqBinding& binding : ast.bindings) {
    if (binding.collection.empty()) continue;
    if (std::find(out.collections.begin(), out.collections.end(),
                  binding.collection) == out.collections.end()) {
      out.collections.push_back(binding.collection);
    }
  }
  for (const XqReturnItem& item : ast.returns) {
    if (!item.alias.empty()) {
      out.column_names.push_back(item.alias);
    } else if (item.path.steps.empty()) {
      out.column_names.push_back(item.path.var + "_doc");
    } else {
      out.column_names.push_back(item.path.steps.back().name);
    }
  }

  for (const std::vector<Leaf>& disjunct : dnf) {
    StatementBuilder builder(dict);
    for (const XqBinding& binding : ast.bindings) {
      XQ_RETURN_IF_ERROR(builder.AddBinding(binding));
    }
    for (const Leaf& leaf : disjunct) {
      const XqCond& cond = *leaf.cond;
      switch (cond.kind) {
        case XqCondKind::kCompare: {
          std::string op = leaf.negated ? InvertOp(cond.op) : cond.op;
          XQ_ASSIGN_OR_RETURN(std::string left_node,
                              builder.EmitPathNode(cond.left));
          if (cond.right_is_path) {
            XQ_ASSIGN_OR_RETURN(std::string right_node,
                                builder.EmitPathNode(cond.right_path));
            bool numeric = op != "=" && op != "!=";
            std::string lv = builder.EmitValueAlias(left_node, numeric);
            std::string rv = builder.EmitValueAlias(right_node, numeric);
            builder.AddWhere(sql::MakeBinary(CmpOp(op), Col(lv, "value"),
                                             Col(rv, "value")));
          } else {
            bool numeric = cond.right_literal.type() != ValueType::kText;
            std::string lv = builder.EmitValueAlias(left_node, numeric);
            builder.AddWhere(sql::MakeBinary(
                CmpOp(op), Col(lv, "value"),
                sql::MakeLiteral(cond.right_literal)));
          }
          break;
        }
        case XqCondKind::kContains: {
          if (leaf.negated) {
            return Status::Unsupported(
                "NOT contains(...) requires set difference and is not "
                "supported");
          }
          XQ_ASSIGN_OR_RETURN(std::string scope_node,
                              builder.EmitPathNode(cond.scope));
          std::string text_alias;
          if (cond.any || cond.scope.steps.empty()) {
            // Subtree keyword search: any text value under the scope node.
            std::string any_node = builder.NewAlias("na");
            builder.AddFrom(hounds::kNodeTable, any_node);
            builder.AddWhere(
                sql::MakeBinary(sql::BinaryOp::kEq, Col(any_node, "doc_id"),
                                Col(scope_node, "doc_id")));
            builder.AddWhere(
                sql::MakeBinary(sql::BinaryOp::kGe, Col(any_node, "ordinal"),
                                Col(scope_node, "ordinal")));
            builder.AddWhere(
                sql::MakeBinary(sql::BinaryOp::kLe, Col(any_node, "ordinal"),
                                Col(scope_node, "end_ordinal")));
            text_alias = builder.EmitValueAlias(any_node, /*numeric=*/false);
          } else {
            text_alias =
                builder.EmitValueAlias(scope_node, /*numeric=*/false);
          }
          auto contains = std::make_unique<sql::Expr>();
          contains->kind = sql::ExprKind::kContains;
          contains->left = Col(text_alias, "value");
          contains->right = sql::MakeLiteral(Value::Text(cond.keyword));
          builder.AddWhere(std::move(contains));
          break;
        }
        case XqCondKind::kOrder: {
          XQ_ASSIGN_OR_RETURN(std::string left_node,
                              builder.EmitPathNode(cond.left));
          XQ_ASSIGN_OR_RETURN(std::string right_node,
                              builder.EmitPathNode(cond.right_path));
          bool before = cond.op == "BEFORE";
          if (leaf.negated) before = !before;
          builder.AddWhere(
              sql::MakeBinary(sql::BinaryOp::kEq, Col(left_node, "doc_id"),
                              Col(right_node, "doc_id")));
          builder.AddWhere(
              sql::MakeBinary(before ? sql::BinaryOp::kLt : sql::BinaryOp::kGt,
                              Col(left_node, "ordinal"),
                              Col(right_node, "ordinal")));
          break;
        }
        default:
          return Status::Internal("non-leaf condition in DNF");
      }
    }

    // RETURN items.
    std::vector<sql::SelectItem> stmt_items;
    for (size_t i = 0; i < ast.returns.size(); ++i) {
      const XqReturnItem& item = ast.returns[i];
      sql::SelectItem si;
      si.alias = out.column_names[i];
      if (item.path.steps.empty()) {
        const VarInfo* var = builder.FindVar(item.path.var);
        if (var == nullptr) {
          return Status::InvalidArgument("unbound variable $" +
                                         item.path.var);
        }
        si.expr = Col(var->doc_alias, "doc_id");
        stmt_items.push_back(std::move(si));
        continue;
      }
      XQ_ASSIGN_OR_RETURN(std::string node, builder.EmitPathNode(item.path));
      std::string value = builder.EmitValueAlias(node, /*numeric=*/false);
      si.expr = Col(value, "value");
      stmt_items.push_back(std::move(si));
    }

    std::string order_by = "d_" + ast.bindings.front().var + ".doc_id";
    auto stmt = std::make_shared<sql::SelectStmt>(
        builder.BuildStmt(std::move(stmt_items), order_by));
    out.sql.push_back(RenderSql(*stmt));
    out.stmts.push_back(std::move(stmt));
  }
  return out;
}

}  // namespace xomatiq::xq
