#ifndef XOMATIQ_XOMATIQ_XOMATIQ_H_
#define XOMATIQ_XOMATIQ_XOMATIQ_H_

#include <string>
#include <vector>

#include "common/query_request.h"
#include "common/result.h"
#include "datahounds/warehouse.h"
#include "sql/engine.h"
#include "xomatiq/xq2sql.h"
#include "xomatiq/xq_ast.h"

namespace xomatiq::xq {

// Result of one XomatiQ query: set-semantic rows plus the SQL that was
// executed (what the paper's GUI shows after "Translate Query").
struct XqResult {
  std::vector<std::string> columns;
  std::vector<rel::Tuple> rows;
  std::vector<std::string> executed_sql;
  // RETURN constructor element name ("" = none); names each row element
  // in the XML rendering.
  std::string constructor_name;

  // The "simple table format" view (Fig 7b / Fig 12 left panel).
  std::string ToTable() const;
};

// The XomatiQ query service (paper §3): parses the XQuery-subset text,
// rewrites it to SQL over the generic schema (XQ2SQL), evaluates on the
// relational engine, and renders results as a table or as re-tagged XML —
// "an illusion of a fully XML-based data management system" with the
// relational engine hidden underneath.
class XomatiQ {
 public:
  explicit XomatiQ(hounds::Warehouse* warehouse)
      : warehouse_(warehouse),
        engine_(warehouse->db()),
        translator_(warehouse) {}

  // Parses, translates and runs a query (req.mode must be kXq or kXqXml;
  // XML re-tagging itself is ResultsAsXml, applied by the caller). The
  // deadline in `req.options` is made absolute once at entry, so every
  // generated SQL statement of a multi-disjunct query draws down one
  // shared budget; expiry surfaces as kTimeout. The whole query —
  // path-dictionary translation and every disjunct — runs against ONE
  // snapshot epoch: `req.read_epoch` when the caller owns a snapshot,
  // else one acquired here. Trace/cache options are consumed by the
  // server layer.
  common::Result<XqResult> Execute(const common::QueryRequest& req);

  // Shorthand for embedded/test use: Execute with default options.
  common::Result<XqResult> Execute(std::string_view query_text) {
    return Execute(common::QueryRequest::Xq(std::string(query_text)));
  }

  // Translation only (inspect the generated SQL).
  common::Result<Translation> Translate(std::string_view query_text);

  // Relational EXPLAIN of every translated statement.
  common::Result<std::string> Explain(std::string_view query_text);

  // Results re-tagged as XML (§3.3 Relation2XML path).
  xml::XmlDocument ResultsAsXml(const XqResult& result) const;

  // The GUI's left panel: DTD structure tree of a collection (Fig 7a).
  common::Result<std::string> FormatDtdTree(
      const std::string& collection) const;

  // The GUI's right result panel: full document view (Fig 7b), rebuilt
  // from tuples.
  common::Result<xml::XmlDocument> ViewDocument(int64_t doc_id) {
    return warehouse_->ReconstructDocument(doc_id);
  }

  hounds::Warehouse* warehouse() { return warehouse_; }
  sql::SqlEngine* engine() { return &engine_; }

 private:
  // Translate with the path-dictionary scan pinned at `read_epoch` (the
  // epoch the translated statements will run at).
  common::Result<Translation> TranslateAt(std::string_view query_text,
                                          uint64_t read_epoch);

  hounds::Warehouse* warehouse_;
  sql::SqlEngine engine_;
  Xq2SqlTranslator translator_;
};

// ---------------------------------------------------------------------
// Visual query mode builders (paper §3.1). Each builder emits the query
// text the GUI's "Translate Query" button would produce; programmatic
// stand-ins for the three click-through modes.
// ---------------------------------------------------------------------

// Keyword-based search mode (Fig 8): one keyword across one or more
// databases; returns the chosen identifier element of each database.
class KeywordQueryBuilder {
 public:
  KeywordQueryBuilder& AddDatabase(std::string collection,
                                   std::string root_element,
                                   std::string return_path);
  KeywordQueryBuilder& SetKeyword(std::string keyword);
  std::string Build() const;

 private:
  struct Db {
    std::string collection;
    std::string root;
    std::string return_path;  // e.g. "//sprot_accession_number"
  };
  std::vector<Db> dbs_;
  std::string keyword_;
};

// Sub-tree search mode (Fig 7a / Fig 9): keyword limited to selected
// sub-trees, with conjunctive/disjunctive conditions.
class SubtreeQueryBuilder {
 public:
  SubtreeQueryBuilder(std::string collection, std::string root_element);
  // Adds contains(<subtree_path>, "<keyword>").
  SubtreeQueryBuilder& AddCondition(std::string subtree_path,
                                    std::string keyword);
  // Adds <path> <op> <literal>.
  SubtreeQueryBuilder& AddComparison(std::string path, std::string op,
                                     std::string literal);
  SubtreeQueryBuilder& SetDisjunctive(bool disjunctive);
  SubtreeQueryBuilder& AddReturn(std::string path);
  std::string Build() const;

 private:
  std::string collection_;
  std::string root_;
  std::vector<std::string> conditions_;
  bool disjunctive_ = false;
  std::vector<std::string> returns_;
};

// Join query mode (Figs 10/11): correlates two databases on joining
// elements.
class JoinQueryBuilder {
 public:
  JoinQueryBuilder(std::string left_collection, std::string left_path,
                   std::string right_collection, std::string right_path);
  // Join condition: $a<left_path> = $b<right_path>.
  JoinQueryBuilder& AddJoin(std::string left_join_path,
                            std::string right_join_path);
  // Extra filter on either side, e.g. contains($a//x, "kw").
  JoinQueryBuilder& AddLeftCondition(std::string raw_condition);
  // RETURN $<alias> = $a<path> (side: 'a' left, 'b' right).
  JoinQueryBuilder& AddReturn(char side, std::string path,
                              std::string alias = "");
  std::string Build() const;

 private:
  std::string left_collection_, left_path_;
  std::string right_collection_, right_path_;
  std::vector<std::pair<std::string, std::string>> joins_;
  std::vector<std::string> conditions_;
  struct Ret {
    char side;
    std::string path;
    std::string alias;
  };
  std::vector<Ret> returns_;
};

}  // namespace xomatiq::xq

#endif  // XOMATIQ_XOMATIQ_XOMATIQ_H_
