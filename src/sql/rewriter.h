#ifndef XOMATIQ_SQL_REWRITER_H_
#define XOMATIQ_SQL_REWRITER_H_

#include <optional>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/value.h"
#include "sql/ast.h"

namespace xomatiq::sql {

// Expression-level rewrites: conjunct splitting, binding checks, constant
// folding and index-shape classification of predicates.

// Splits a boolean expression into top-level AND conjuncts (consumes the
// expression tree).
void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out);

// True when every column reference in `e` resolves in `schema`.
bool BindableAgainst(const Expr& e, const rel::Schema& schema);

// Bare column name (strips any "alias." qualifier).
std::string BareName(const std::string& name);

// AND-combines a conjunct list back into one expression (null when empty).
ExprPtr AndAll(std::vector<ExprPtr> conjuncts);

// Constant folding: evaluates literal-only pure subexpressions (arithmetic,
// comparisons, scalar functions, NOT/negation) down to literals. AND/OR are
// left alone so conjunct structure survives; any evaluation error leaves
// the subtree untouched.
ExprPtr FoldConstants(ExprPtr e);

// --- predicate classification (index-usable shapes) -------------------

// A single-table predicate decomposed for index matching.
struct EqPred {
  std::string bare_column;
  rel::Value literal;
  size_t conjunct_index;
};

struct RangePred {
  std::string bare_column;
  std::optional<rel::Value> lo;
  bool lo_inclusive = true;
  std::optional<rel::Value> hi;
  bool hi_inclusive = true;
  size_t conjunct_index;
  // True when the range is a superset of the predicate (e.g. the prefix
  // range of a LIKE): the original conjunct must stay as a filter.
  bool keep_conjunct = false;
};

struct ContainsPred {
  std::string bare_column;
  std::string keyword;
  size_t conjunct_index;
};

// Classifies `e` (already known to bind only against one table) into an
// index-usable shape, if any: column-vs-literal equality / range / BETWEEN,
// LIKE with a literal prefix (range + residual), CONTAINS keyword.
void ClassifyPredicate(const Expr& e, size_t conjunct_index,
                       std::vector<EqPred>* eqs,
                       std::vector<RangePred>* ranges,
                       std::vector<ContainsPred>* contains);

}  // namespace xomatiq::sql

#endif  // XOMATIQ_SQL_REWRITER_H_
