#ifndef XOMATIQ_XOMATIQ_XQ2SQL_H_
#define XOMATIQ_XOMATIQ_XQ2SQL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "datahounds/warehouse.h"
#include "sql/ast.h"
#include "xomatiq/xq_ast.h"

namespace xomatiq::xq {

// Output of translating one XomatiQ query.
struct Translation {
  // RenderSql of each statement in `stmts`, same order: the text shown
  // for display and logging, and used as caching keys.
  std::vector<std::string> sql;
  // One SELECT per disjunct of the WHERE clause's disjunctive normal form;
  // results are unioned (set semantics) by the caller. The engine executes
  // these directly (SqlEngine::ExecuteSelectStmtBatched), so the XQ path
  // never lexes or parses SQL text. shared_ptr because Translation is
  // copied (result cache, XqResult) while SelectStmt is move-only.
  std::vector<std::shared_ptr<const sql::SelectStmt>> stmts;
  // Output column names, in RETURN order.
  std::vector<std::string> column_names;
  // Element name of the RETURN constructor ("" = plain item list); the
  // tagger uses it as the per-row element name.
  std::string constructor_name;
};

// SQL text of a translated statement. Renders only the fields the
// translator fills: DISTINCT, aliased items, the FROM list, the WHERE
// clause as a flat AND of its top-level conjuncts (each through
// Expr::ToString), and ORDER BY.
std::string RenderSql(const sql::SelectStmt& stmt);

// XQ2SQL-Transformer (paper §3.2): rewrites a parsed XomatiQ query into
// SQL over the generic shredding schema.
//
// Strategy (follows the relational-XML translations the paper cites —
// Shanmugasundaram et al., Agora, Zhang et al. containment joins):
//   - each FOR variable becomes an xml_document + xml_node alias pair,
//     constrained by collection and by the path_ids that match the
//     binding path (resolved against the xml_path dictionary at
//     translation time);
//   - each relative path becomes another xml_node alias constrained by
//     matching path_ids plus an (ordinal, end_ordinal) interval
//     containment join to its variable's node;
//   - value accesses join xml_text (equality/string ops, keyword
//     contains) or xml_number (ordered comparisons with numeric
//     literals);
//   - contains(x, kw) on a path tests that node's value; contains($v,
//     kw, any) searches every text value in the subtree;
//   - BEFORE/AFTER compare ordinals within a document;
//   - OR is handled by DNF expansion into one SQL statement per
//     disjunct; NOT is pushed onto comparisons (negated contains is not
//     expressible without set difference and is rejected).
//
// The generated statements SELECT DISTINCT and ORDER BY the first
// variable's doc_id, so results are set-semantic and deterministic.
class Xq2SqlTranslator {
 public:
  explicit Xq2SqlTranslator(hounds::Warehouse* warehouse)
      : warehouse_(warehouse) {}

  // `read_epoch` pins the path-dictionary scan to the caller's snapshot
  // (the same epoch the translated statements will execute at), so a
  // translation never sees paths from a warehouse load that its reads
  // won't. The default (latest) is for writer/single-threaded contexts.
  common::Result<Translation> Translate(const XQueryAst& ast,
                                        uint64_t read_epoch = rel::kEpochMax);

 private:
  hounds::Warehouse* warehouse_;
};

}  // namespace xomatiq::xq

#endif  // XOMATIQ_XOMATIQ_XQ2SQL_H_
