#include "sql/expr_eval.h"

#include <cmath>

#include "common/string_util.h"

namespace xomatiq::sql {

using common::Result;
using common::Status;
using rel::Value;
using rel::ValueType;

Status Bind(Expr* e, const rel::Schema& schema, bool allow_aggregates) {
  switch (e->kind) {
    case ExprKind::kLiteral:
    case ExprKind::kStar:
      return Status::OK();
    case ExprKind::kColumnRef: {
      XQ_ASSIGN_OR_RETURN(size_t idx, schema.ResolveColumn(e->column_name));
      e->bound_index = static_cast<int>(idx);
      return Status::OK();
    }
    case ExprKind::kAggregate:
      if (!allow_aggregates) {
        return Status::InvalidArgument(
            "aggregate not allowed here: " + e->ToString());
      }
      if (e->left) XQ_RETURN_IF_ERROR(Bind(e->left.get(), schema, false));
      return Status::OK();
    default:
      break;
  }
  if (e->left) {
    XQ_RETURN_IF_ERROR(Bind(e->left.get(), schema, allow_aggregates));
  }
  if (e->right) {
    XQ_RETURN_IF_ERROR(Bind(e->right.get(), schema, allow_aggregates));
  }
  if (e->extra) {
    XQ_RETURN_IF_ERROR(Bind(e->extra.get(), schema, allow_aggregates));
  }
  for (ExprPtr& item : e->list) {
    XQ_RETURN_IF_ERROR(Bind(item.get(), schema, allow_aggregates));
  }
  return Status::OK();
}

namespace {

Value BoolValue(bool b) { return Value::Int(b ? 1 : 0); }

}  // namespace

// NULL-aware truthiness; NULL -> nullopt.
namespace {

Result<Value> EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  int c = Value::Compare(l, r);
  switch (op) {
    case BinaryOp::kEq: return BoolValue(c == 0);
    case BinaryOp::kNe: return BoolValue(c != 0);
    case BinaryOp::kLt: return BoolValue(c < 0);
    case BinaryOp::kLe: return BoolValue(c <= 0);
    case BinaryOp::kGt: return BoolValue(c > 0);
    case BinaryOp::kGe: return BoolValue(c >= 0);
    default:
      return Status::Internal("not a comparison op");
  }
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (op == BinaryOp::kConcat) {
    return Value::Text(l.ToString() + r.ToString());
  }
  if (l.type() == ValueType::kInt && r.type() == ValueType::kInt) {
    int64_t a = l.AsInt(), b = r.AsInt();
    switch (op) {
      case BinaryOp::kAdd: return Value::Int(a + b);
      case BinaryOp::kSub: return Value::Int(a - b);
      case BinaryOp::kMul: return Value::Int(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value::Int(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        return Value::Int(a % b);
      default:
        return Status::Internal("not arithmetic");
    }
  }
  XQ_ASSIGN_OR_RETURN(double a, l.ToNumeric());
  XQ_ASSIGN_OR_RETURN(double b, r.ToNumeric());
  switch (op) {
    case BinaryOp::kAdd: return Value::Double(a + b);
    case BinaryOp::kSub: return Value::Double(a - b);
    case BinaryOp::kMul: return Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Value::Double(a / b);
    case BinaryOp::kMod:
      if (b == 0) return Status::InvalidArgument("modulo by zero");
      return Value::Double(std::fmod(a, b));
    default:
      return Status::Internal("not arithmetic");
  }
}

}  // namespace

Result<Value> EvalBinaryScalar(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return EvalComparison(op, l, r);
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return Status::Internal("AND/OR are not scalar ops");
    default:
      return EvalArithmetic(op, l, r);
  }
}

bool MatchLike(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer matcher with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

bool MatchContains(std::string_view text, std::string_view keywords) {
  std::vector<std::string> needles = common::TokenizeKeywords(keywords);
  if (needles.empty()) return false;
  std::vector<std::string> words = common::TokenizeKeywords(text);
  for (const std::string& needle : needles) {
    bool found = false;
    for (const std::string& w : words) {
      if (w == needle) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

rel::ValueType InferType(const Expr& e, const rel::Schema& schema) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.value.type() == ValueType::kNull ? ValueType::kText
                                                : e.value.type();
    case ExprKind::kColumnRef: {
      auto idx = schema.FindColumn(e.column_name);
      return idx.has_value() ? schema.column(*idx).type : ValueType::kText;
    }
    case ExprKind::kBinary:
      switch (e.bin_op) {
        case BinaryOp::kConcat:
          return ValueType::kText;
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod: {
          ValueType l = InferType(*e.left, schema);
          ValueType r = InferType(*e.right, schema);
          return (l == ValueType::kInt && r == ValueType::kInt)
                     ? ValueType::kInt
                     : ValueType::kDouble;
        }
        default:
          return ValueType::kInt;  // boolean
      }
    case ExprKind::kUnary:
      return e.un_op == UnaryOp::kNot ? ValueType::kInt
                                      : InferType(*e.left, schema);
    case ExprKind::kIsNull:
    case ExprKind::kLike:
    case ExprKind::kContains:
    case ExprKind::kBetween:
    case ExprKind::kInList:
      return ValueType::kInt;
    case ExprKind::kFunc:
      return e.func == ScalarFunc::kLength ? ValueType::kInt
                                           : ValueType::kText;
    case ExprKind::kAggregate:
      switch (e.agg) {
        case AggFunc::kCount:
          return ValueType::kInt;
        case AggFunc::kAvg:
          return ValueType::kDouble;
        default:
          return e.left ? InferType(*e.left, schema) : ValueType::kDouble;
      }
    case ExprKind::kStar:
      return ValueType::kInt;
  }
  return ValueType::kText;
}

bool ContainsAggregate(const Expr& e) {
  if (e.kind == ExprKind::kAggregate) return true;
  if (e.left && ContainsAggregate(*e.left)) return true;
  if (e.right && ContainsAggregate(*e.right)) return true;
  if (e.extra && ContainsAggregate(*e.extra)) return true;
  for (const ExprPtr& item : e.list) {
    if (ContainsAggregate(*item)) return true;
  }
  return false;
}

}  // namespace xomatiq::sql
