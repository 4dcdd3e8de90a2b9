#include "sql/rewriter.h"

#include "sql/compiled_expr.h"

namespace xomatiq::sql {

using rel::Schema;
using rel::Value;
using rel::ValueType;

void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary && expr->bin_op == BinaryOp::kAnd) {
    SplitConjuncts(std::move(expr->left), out);
    SplitConjuncts(std::move(expr->right), out);
    return;
  }
  out->push_back(std::move(expr));
}

namespace {

void CollectColumnRefs(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kColumnRef) {
    out->push_back(&e);
    return;
  }
  if (e.left) CollectColumnRefs(*e.left, out);
  if (e.right) CollectColumnRefs(*e.right, out);
  if (e.extra) CollectColumnRefs(*e.extra, out);
  for (const ExprPtr& item : e.list) CollectColumnRefs(*item, out);
}

}  // namespace

bool BindableAgainst(const Expr& e, const Schema& schema) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  for (const Expr* ref : refs) {
    if (!schema.FindColumn(ref->column_name).has_value()) return false;
  }
  return true;
}

std::string BareName(const std::string& name) {
  size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

ExprPtr AndAll(std::vector<ExprPtr> conjuncts) {
  ExprPtr acc;
  for (ExprPtr& c : conjuncts) {
    acc = acc == nullptr
              ? std::move(c)
              : MakeBinary(BinaryOp::kAnd, std::move(acc), std::move(c));
  }
  return acc;
}

namespace {

bool IsLiteral(const ExprPtr& e) {
  return e != nullptr && e->kind == ExprKind::kLiteral;
}

}  // namespace

namespace {

ExprPtr Fold(ExprPtr e, EvalScratch* scratch) {
  if (e == nullptr) return e;
  if (e->left) e->left = Fold(std::move(e->left), scratch);
  if (e->right) e->right = Fold(std::move(e->right), scratch);
  if (e->extra) e->extra = Fold(std::move(e->extra), scratch);
  for (ExprPtr& item : e->list) item = Fold(std::move(item), scratch);

  bool foldable = false;
  switch (e->kind) {
    case ExprKind::kBinary:
      // AND/OR stay intact so conjunct splitting sees the original shape.
      foldable = e->bin_op != BinaryOp::kAnd && e->bin_op != BinaryOp::kOr &&
                 IsLiteral(e->left) && IsLiteral(e->right);
      break;
    case ExprKind::kUnary:
      foldable = IsLiteral(e->left);
      break;
    case ExprKind::kFunc:
      foldable = IsLiteral(e->left);
      break;
    default:
      break;
  }
  if (!foldable) return e;
  auto prog = CompiledExpr::Compile(*e);
  if (!prog.ok()) return e;
  auto v = prog->EvalRow({}, scratch);
  if (!v.ok()) return e;  // fold errors surface at execution time instead
  return MakeLiteral(std::move(*v));
}

}  // namespace

ExprPtr FoldConstants(ExprPtr e) {
  EvalScratch scratch;
  return Fold(std::move(e), &scratch);
}

void ClassifyPredicate(const Expr& e, size_t conjunct_index,
                       std::vector<EqPred>* eqs,
                       std::vector<RangePred>* ranges,
                       std::vector<ContainsPred>* contains) {
  if (e.kind == ExprKind::kContains &&
      e.left->kind == ExprKind::kColumnRef &&
      e.right->kind == ExprKind::kLiteral &&
      e.right->value.type() == ValueType::kText) {
    contains->push_back({BareName(e.left->column_name),
                         e.right->value.AsText(), conjunct_index});
    return;
  }
  if (e.kind == ExprKind::kBetween && !e.negated &&
      e.left->kind == ExprKind::kColumnRef &&
      e.right->kind == ExprKind::kLiteral &&
      e.extra->kind == ExprKind::kLiteral) {
    RangePred r;
    r.bare_column = BareName(e.left->column_name);
    r.lo = e.right->value;
    r.hi = e.extra->value;
    r.conjunct_index = conjunct_index;
    ranges->push_back(std::move(r));
    return;
  }
  // LIKE with a literal prefix scans the btree range [prefix, prefix+1)
  // and keeps the LIKE as a residual filter.
  if (e.kind == ExprKind::kLike && !e.negated &&
      e.left->kind == ExprKind::kColumnRef &&
      e.right->kind == ExprKind::kLiteral &&
      e.right->value.type() == ValueType::kText) {
    const std::string& pattern = e.right->value.AsText();
    size_t wildcard = pattern.find_first_of("%_");
    if (wildcard != std::string::npos && wildcard > 0) {
      std::string prefix = pattern.substr(0, wildcard);
      if (static_cast<unsigned char>(prefix.back()) < 0xFF) {
        std::string upper = prefix;
        upper.back() = static_cast<char>(upper.back() + 1);
        RangePred r;
        r.bare_column = BareName(e.left->column_name);
        r.lo = Value::Text(prefix);
        r.hi = Value::Text(upper);
        r.hi_inclusive = false;
        r.conjunct_index = conjunct_index;
        r.keep_conjunct = true;
        ranges->push_back(std::move(r));
      }
    }
    return;
  }
  if (e.kind != ExprKind::kBinary) return;
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  bool flipped = false;
  if (e.left->kind == ExprKind::kColumnRef &&
      e.right->kind == ExprKind::kLiteral) {
    col = e.left.get();
    lit = e.right.get();
  } else if (e.right->kind == ExprKind::kColumnRef &&
             e.left->kind == ExprKind::kLiteral) {
    col = e.right.get();
    lit = e.left.get();
    flipped = true;
  } else {
    return;
  }
  if (lit->value.is_null()) return;
  BinaryOp op = e.bin_op;
  if (flipped) {
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGe: op = BinaryOp::kLe; break;
      default: break;
    }
  }
  std::string bare = BareName(col->column_name);
  switch (op) {
    case BinaryOp::kEq:
      eqs->push_back({bare, lit->value, conjunct_index});
      break;
    case BinaryOp::kLt:
    case BinaryOp::kLe: {
      RangePred r;
      r.bare_column = bare;
      r.hi = lit->value;
      r.hi_inclusive = op == BinaryOp::kLe;
      r.conjunct_index = conjunct_index;
      ranges->push_back(std::move(r));
      break;
    }
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      RangePred r;
      r.bare_column = bare;
      r.lo = lit->value;
      r.lo_inclusive = op == BinaryOp::kGe;
      r.conjunct_index = conjunct_index;
      ranges->push_back(std::move(r));
      break;
    }
    default:
      break;
  }
}

}  // namespace xomatiq::sql
