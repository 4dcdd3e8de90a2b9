#include "sql/compiled_expr.h"

#include <cctype>

#include "common/string_util.h"
#include "sql/expr_eval.h"

namespace xomatiq::sql {

using common::Result;
using common::Status;
using rel::Value;
using rel::ValueType;

namespace {

Value BoolValue(bool b) { return Value::Int(b ? 1 : 0); }

// Shared results for boolean-producing ops, so probes and combines can
// push a borrowed pointer instead of materializing a Value per row.
const Value& SharedBool(bool b) {
  static const Value kTrue = Value::Int(1);
  static const Value kFalse = Value::Int(0);
  return b ? kTrue : kFalse;
}

const Value& SharedNull() {
  static const Value kNull = Value::Null();
  return kNull;
}

// Text view without materializing a std::string when the value already is
// text; falls back to formatting into `buf` (matches Value::ToString()).
std::string_view TextView(const Value& v, std::string* buf) {
  if (v.type() == ValueType::kText) return v.AsText();
  *buf = v.ToString();
  return *buf;
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// Three-valued AND/OR over already-evaluated operands (the probe has
// already settled the short-circuit cases).
Value Combine3VL(bool is_and, const Value& lv, const Value& rv) {
  std::optional<bool> l = Truthiness(lv);
  std::optional<bool> r = Truthiness(rv);
  if (is_and) {
    if (r.has_value() && !*r) return BoolValue(false);
    if (l.has_value() && !*l) return BoolValue(false);
    if (l.has_value() && r.has_value()) return BoolValue(*l && *r);
    return Value::Null();
  }
  if (r.has_value() && *r) return BoolValue(true);
  if (l.has_value() && *l) return BoolValue(true);
  if (l.has_value() && r.has_value()) return BoolValue(*l || *r);
  return Value::Null();
}

}  // namespace

Status CompiledExpr::Emit(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      ExprOp op;
      op.code = ExprOp::Code::kPushConst;
      op.constant = e.value;
      ops_.push_back(std::move(op));
      return Status::OK();
    }
    case ExprKind::kColumnRef: {
      if (e.bound_index < 0) {
        return Status::Internal("compiling unbound column " + e.column_name);
      }
      ExprOp op;
      op.code = ExprOp::Code::kPushSlot;
      op.slot = e.bound_index;
      ops_.push_back(std::move(op));
      return Status::OK();
    }
    case ExprKind::kBinary: {
      if (e.bin_op == BinaryOp::kAnd || e.bin_op == BinaryOp::kOr) {
        bool is_and = e.bin_op == BinaryOp::kAnd;
        XQ_RETURN_IF_ERROR(Emit(*e.left));
        size_t probe = ops_.size();
        ExprOp op;
        op.code = is_and ? ExprOp::Code::kAndProbe : ExprOp::Code::kOrProbe;
        ops_.push_back(std::move(op));
        XQ_RETURN_IF_ERROR(Emit(*e.right));
        ExprOp combine;
        combine.code =
            is_and ? ExprOp::Code::kAndCombine : ExprOp::Code::kOrCombine;
        ops_.push_back(std::move(combine));
        ops_[probe].jump = ops_.size();
        return Status::OK();
      }
      XQ_RETURN_IF_ERROR(Emit(*e.left));
      XQ_RETURN_IF_ERROR(Emit(*e.right));
      ExprOp op;
      op.code = ExprOp::Code::kBinary;
      op.bin_op = e.bin_op;
      ops_.push_back(std::move(op));
      return Status::OK();
    }
    case ExprKind::kUnary: {
      XQ_RETURN_IF_ERROR(Emit(*e.left));
      ExprOp op;
      op.code = e.un_op == UnaryOp::kNot ? ExprOp::Code::kNot
                                         : ExprOp::Code::kNeg;
      ops_.push_back(std::move(op));
      return Status::OK();
    }
    case ExprKind::kIsNull: {
      XQ_RETURN_IF_ERROR(Emit(*e.left));
      ExprOp op;
      op.code = ExprOp::Code::kIsNull;
      op.negated = e.negated;
      ops_.push_back(std::move(op));
      return Status::OK();
    }
    case ExprKind::kLike:
    case ExprKind::kContains: {
      XQ_RETURN_IF_ERROR(Emit(*e.left));
      XQ_RETURN_IF_ERROR(Emit(*e.right));
      ExprOp op;
      op.code = e.kind == ExprKind::kLike ? ExprOp::Code::kLike
                                          : ExprOp::Code::kContains;
      op.negated = e.negated;
      ops_.push_back(std::move(op));
      return Status::OK();
    }
    case ExprKind::kBetween: {
      XQ_RETURN_IF_ERROR(Emit(*e.left));
      XQ_RETURN_IF_ERROR(Emit(*e.right));
      XQ_RETURN_IF_ERROR(Emit(*e.extra));
      ExprOp op;
      op.code = ExprOp::Code::kBetween;
      op.negated = e.negated;
      ops_.push_back(std::move(op));
      return Status::OK();
    }
    case ExprKind::kInList: {
      XQ_RETURN_IF_ERROR(Emit(*e.left));
      for (const ExprPtr& item : e.list) {
        XQ_RETURN_IF_ERROR(Emit(*item));
      }
      ExprOp op;
      op.code = ExprOp::Code::kInList;
      op.negated = e.negated;
      op.arity = e.list.size();
      ops_.push_back(std::move(op));
      return Status::OK();
    }
    case ExprKind::kFunc: {
      XQ_RETURN_IF_ERROR(Emit(*e.left));
      ExprOp op;
      op.code = ExprOp::Code::kFunc;
      op.func = e.func;
      ops_.push_back(std::move(op));
      return Status::OK();
    }
    case ExprKind::kAggregate:
      return Status::Internal("aggregate in compiled expression: " +
                              e.ToString());
    case ExprKind::kStar:
      return Status::Internal("bare * in compiled expression");
  }
  return Status::Internal("bad expr kind");
}

Result<CompiledExpr> CompiledExpr::Compile(const Expr& e) {
  CompiledExpr prog;
  XQ_RETURN_IF_ERROR(prog.Emit(e));
  return prog;
}

Result<const Value*> CompiledExpr::EvalRowRef(const rel::Tuple& row,
                                              EvalScratch* scratch) const {
  return EvalRef(row, nullptr, scratch);
}

Result<const Value*> CompiledExpr::EvalPairRef(const rel::Tuple& left,
                                               const rel::Tuple& right,
                                               EvalScratch* scratch) const {
  return EvalRef(left, &right, scratch);
}

// `right`, when set, extends the slot space: slots [0, left.size()) read
// from `left` and the rest from `right`, exactly as if the two tuples had
// been concatenated. Joins use this to evaluate pair predicates without
// materializing the combined row.
Result<const Value*> CompiledExpr::EvalRef(const rel::Tuple& left,
                                           const rel::Tuple* right,
                                           EvalScratch* scratch) const {
  std::vector<const Value*>& stack = scratch->stack;
  std::vector<Value>& owned = scratch->owned;
  stack.clear();
  owned.clear();
  // Each op appends at most one temporary, so this bound keeps `owned`
  // from reallocating (which would dangle the borrowed stack pointers).
  owned.reserve(ops_.size());
  auto push_owned = [&](Value v) {
    owned.push_back(std::move(v));
    stack.push_back(&owned.back());
  };
  for (size_t ip = 0; ip < ops_.size();) {
    const ExprOp& op = ops_[ip];
    switch (op.code) {
      case ExprOp::Code::kPushConst:
        stack.push_back(&op.constant);
        break;
      case ExprOp::Code::kPushSlot: {
        size_t slot = static_cast<size_t>(op.slot);
        if (slot < left.size()) {
          stack.push_back(&left[slot]);
        } else if (right != nullptr && slot - left.size() < right->size()) {
          stack.push_back(&(*right)[slot - left.size()]);
        } else {
          return Status::Internal("slot " + std::to_string(slot) +
                                  " out of range for tuple arity " +
                                  std::to_string(left.size() +
                                                 (right ? right->size() : 0)));
        }
        break;
      }
      case ExprOp::Code::kBinary: {
        const Value* r = stack.back();
        stack.pop_back();
        const Value* l = stack.back();
        // Comparisons dominate compiled filters; settle them into a shared
        // singleton in place (same semantics as EvalComparison: NULL
        // operand -> NULL, otherwise Value::Compare ordering) so no
        // temporary Value is materialized per row.
        if (IsComparisonOp(op.bin_op)) {
          if (l->is_null() || r->is_null()) {
            stack.back() = &SharedNull();
            break;
          }
          int c;
          if (l->type() == ValueType::kInt && r->type() == ValueType::kInt) {
            int64_t x = l->AsInt(), y = r->AsInt();
            c = x < y ? -1 : (x > y ? 1 : 0);
          } else {
            c = Value::Compare(*l, *r);
          }
          bool res = false;
          switch (op.bin_op) {
            case BinaryOp::kEq: res = c == 0; break;
            case BinaryOp::kNe: res = c != 0; break;
            case BinaryOp::kLt: res = c < 0; break;
            case BinaryOp::kLe: res = c <= 0; break;
            case BinaryOp::kGt: res = c > 0; break;
            default: res = c >= 0; break;  // kGe
          }
          stack.back() = &SharedBool(res);
          break;
        }
        stack.pop_back();
        XQ_ASSIGN_OR_RETURN(Value v, EvalBinaryScalar(op.bin_op, *l, *r));
        push_owned(std::move(v));
        break;
      }
      case ExprOp::Code::kAndProbe: {
        std::optional<bool> t = Truthiness(*stack.back());
        if (t.has_value() && !*t) {
          stack.back() = &SharedBool(false);
          ip = op.jump;
          continue;
        }
        break;
      }
      case ExprOp::Code::kOrProbe: {
        std::optional<bool> t = Truthiness(*stack.back());
        if (t.has_value() && *t) {
          stack.back() = &SharedBool(true);
          ip = op.jump;
          continue;
        }
        break;
      }
      case ExprOp::Code::kAndCombine:
      case ExprOp::Code::kOrCombine: {
        const Value* r = stack.back();
        stack.pop_back();
        const Value* l = stack.back();
        stack.pop_back();
        push_owned(
            Combine3VL(op.code == ExprOp::Code::kAndCombine, *l, *r));
        break;
      }
      case ExprOp::Code::kNot: {
        std::optional<bool> t = Truthiness(*stack.back());
        stack.back() = t.has_value() ? &SharedBool(!*t) : &SharedNull();
        break;
      }
      case ExprOp::Code::kNeg: {
        const Value* v = stack.back();
        stack.pop_back();
        if (v->is_null()) {
          stack.push_back(&SharedNull());
        } else if (v->type() == ValueType::kInt) {
          push_owned(Value::Int(-v->AsInt()));
        } else {
          XQ_ASSIGN_OR_RETURN(double d, v->ToNumeric());
          push_owned(Value::Double(-d));
        }
        break;
      }
      case ExprOp::Code::kIsNull: {
        bool null = stack.back()->is_null();
        stack.back() = &SharedBool(null != op.negated);
        break;
      }
      case ExprOp::Code::kLike:
      case ExprOp::Code::kContains: {
        const Value* pattern = stack.back();
        stack.pop_back();
        const Value* text = stack.back();
        stack.pop_back();
        if (text->is_null() || pattern->is_null()) {
          stack.push_back(&SharedNull());
          break;
        }
        std::string text_buf, pattern_buf;
        std::string_view t = TextView(*text, &text_buf);
        std::string_view p = TextView(*pattern, &pattern_buf);
        bool m = op.code == ExprOp::Code::kLike ? MatchLike(t, p)
                                                : MatchContains(t, p);
        stack.push_back(&SharedBool(m != op.negated));
        break;
      }
      case ExprOp::Code::kBetween: {
        const Value* hi = stack.back();
        stack.pop_back();
        const Value* lo = stack.back();
        stack.pop_back();
        const Value* v = stack.back();
        stack.pop_back();
        if (v->is_null() || lo->is_null() || hi->is_null()) {
          stack.push_back(&SharedNull());
          break;
        }
        bool in =
            Value::Compare(*v, *lo) >= 0 && Value::Compare(*v, *hi) <= 0;
        stack.push_back(&SharedBool(in != op.negated));
        break;
      }
      case ExprOp::Code::kInList: {
        size_t base = stack.size() - op.arity;
        const Value& needle = *stack[base - 1];
        const Value* out;
        if (needle.is_null()) {
          out = &SharedNull();
        } else {
          bool matched = false;
          bool saw_null = false;
          for (size_t i = 0; i < op.arity; ++i) {
            const Value& item = *stack[base + i];
            if (item.is_null()) {
              saw_null = true;
            } else if (Value::Compare(needle, item) == 0) {
              matched = true;
              break;
            }
          }
          if (matched) {
            out = &SharedBool(!op.negated);
          } else if (saw_null) {
            out = &SharedNull();
          } else {
            out = &SharedBool(op.negated);
          }
        }
        stack.resize(base - 1);
        stack.push_back(out);
        break;
      }
      case ExprOp::Code::kFunc: {
        const Value* v = stack.back();
        stack.pop_back();
        if (v->is_null()) {
          stack.push_back(&SharedNull());
          break;
        }
        switch (op.func) {
          case ScalarFunc::kLower:
            push_owned(Value::Text(common::AsciiToLower(v->ToString())));
            break;
          case ScalarFunc::kUpper: {
            std::string s = v->ToString();
            for (char& c : s) {
              c = static_cast<char>(
                  std::toupper(static_cast<unsigned char>(c)));
            }
            push_owned(Value::Text(std::move(s)));
            break;
          }
          case ScalarFunc::kLength:
            push_owned(
                Value::Int(static_cast<int64_t>(v->ToString().size())));
            break;
        }
        break;
      }
    }
    ++ip;
  }
  if (stack.size() != 1) {
    return Status::Internal("expression program left " +
                            std::to_string(stack.size()) + " stack values");
  }
  return stack.back();
}

Result<Value> CompiledExpr::EvalRow(const rel::Tuple& row,
                                    EvalScratch* scratch) const {
  XQ_ASSIGN_OR_RETURN(const Value* v, EvalRowRef(row, scratch));
  return *v;
}

Status CompiledExpr::FilterBatch(rel::RowBatch* batch,
                                 EvalScratch* scratch) const {
  std::vector<uint32_t> next;
  next.reserve(batch->size());
  const std::vector<uint32_t>& sel = batch->sel();
  for (size_t i = 0; i < sel.size(); ++i) {
    XQ_ASSIGN_OR_RETURN(const Value* v, EvalRowRef(batch->row(i), scratch));
    std::optional<bool> t = Truthiness(*v);
    if (t.has_value() && *t) next.push_back(sel[i]);
  }
  batch->SetSel(std::move(next));
  return Status::OK();
}

}  // namespace xomatiq::sql
