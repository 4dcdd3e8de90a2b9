#ifndef XOMATIQ_SQL_COMPILED_EXPR_H_
#define XOMATIQ_SQL_COMPILED_EXPR_H_

#include <vector>

#include "common/result.h"
#include "relational/row_batch.h"
#include "relational/schema.h"
#include "sql/ast.h"

namespace xomatiq::sql {

// One step of a compiled expression program. Programs are the expression
// tree flattened to postfix over an explicit value stack, with jump
// targets for AND/OR short-circuit. Booleans are INT 0/1, and SQL
// three-valued logic propagates NULL.
struct ExprOp {
  enum class Code {
    kPushConst,   // push `constant`
    kPushSlot,    // push tuple[slot]
    kBinary,      // pop r, l; push l <bin_op> r (comparison/arith/concat)
    kAndProbe,    // if TOS is definitely false: TOS = 0, jump to `jump`
    kOrProbe,     // if TOS is definitely true: TOS = 1, jump to `jump`
    kAndCombine,  // pop r, l; push three-valued l AND r
    kOrCombine,   // pop r, l; push three-valued l OR r
    kNot,         // pop v; push three-valued NOT v
    kNeg,         // pop v; push -v
    kIsNull,      // pop v; push (v IS [NOT] NULL)
    kLike,        // pop pattern, text; push match (negatable)
    kContains,    // pop keywords, text; push match
    kBetween,     // pop hi, lo, v; push containment (negatable)
    kInList,      // pop `arity` items then the needle; push membership
    kFunc,        // pop v; push func(v)
  };

  Code code = Code::kPushConst;
  BinaryOp bin_op = BinaryOp::kEq;
  ScalarFunc func = ScalarFunc::kLower;
  bool negated = false;
  int slot = -1;           // kPushSlot ordinal into the input tuple
  rel::Value constant;     // kPushConst
  size_t jump = 0;         // kAndProbe/kOrProbe short-circuit target
  size_t arity = 0;        // kInList item count
};

// Reusable per-evaluator scratch space. Not shared across threads. The
// value stack holds borrowed pointers (into the input tuple, the
// program's constants, or `owned` temporaries), so slot and constant
// pushes copy nothing.
struct EvalScratch {
  std::vector<const rel::Value*> stack;
  std::vector<rel::Value> owned;
};

// A slot-bound expression program: the only expression evaluator. Built
// once per plan or statement, then evaluated per row or batch. Column
// references must already be Bind()-resolved to ordinal slots of the
// input schema.
class CompiledExpr {
 public:
  // Flattens `e` into a program. Fails on unbound column refs and on
  // aggregate/star nodes (the planner rewrites those away first).
  static common::Result<CompiledExpr> Compile(const Expr& e);

  // Evaluates the program against one row.
  common::Result<rel::Value> EvalRow(const rel::Tuple& row,
                                     EvalScratch* scratch) const;

  // Zero-copy variant: the returned pointer aims into `row`, the program's
  // constants, or `scratch->owned`; it is valid until the next evaluation
  // through `scratch`.
  common::Result<const rel::Value*> EvalRowRef(const rel::Tuple& row,
                                               EvalScratch* scratch) const;

  // Evaluates against the virtual concatenation left ++ right without
  // materializing it; joins use this for pair predicates. Same pointer
  // lifetime rules as EvalRowRef.
  common::Result<const rel::Value*> EvalPairRef(const rel::Tuple& left,
                                                const rel::Tuple& right,
                                                EvalScratch* scratch) const;

  // Narrows `batch`'s selection to the rows where the program is true
  // (SQL three-valued logic: NULL rows are filtered out).
  common::Status FilterBatch(rel::RowBatch* batch, EvalScratch* scratch) const;

  size_t num_ops() const { return ops_.size(); }

  // Ordinal of the input slot when the program is a bare column reference
  // (the common shape for join keys and SELECT lists); -1 otherwise.
  // Operators use this to read the slot directly, skipping the
  // interpreter's per-row setup.
  int single_slot() const {
    return ops_.size() == 1 && ops_[0].code == ExprOp::Code::kPushSlot
               ? ops_[0].slot
               : -1;
  }

 private:
  common::Status Emit(const Expr& e);
  common::Result<const rel::Value*> EvalRef(const rel::Tuple& left,
                                            const rel::Tuple* right,
                                            EvalScratch* scratch) const;

  std::vector<ExprOp> ops_;
};

}  // namespace xomatiq::sql

#endif  // XOMATIQ_SQL_COMPILED_EXPR_H_
