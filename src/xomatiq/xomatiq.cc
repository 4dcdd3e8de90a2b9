#include "xomatiq/xomatiq.h"

#include <set>

#include "common/metrics.h"
#include "common/query_log.h"
#include "common/trace.h"
#include "xomatiq/tagger.h"
#include "xomatiq/xq_parser.h"

namespace xomatiq::xq {

using common::Result;
using common::Status;
using rel::Tuple;
using rel::Value;

namespace {

// Stage latency histograms: each named pipeline stage (parse -> translate
// -> execute -> tag) also lands in the metrics snapshot, so the XomatiQ
// query-latency breakdown is visible without an active trace.
common::Histogram* StageHist(const char* name) {
  return common::MetricsRegistry::Global().GetHistogram(name);
}

}  // namespace

std::string XqResult::ToTable() const {
  sql::QueryResult qr;
  rel::Schema schema;
  for (const std::string& col : columns) {
    schema.AddColumn({col, rel::ValueType::kText, false});
  }
  qr.schema = std::move(schema);
  qr.rows = rows;
  return qr.ToTable();
}

Result<Translation> XomatiQ::Translate(std::string_view query_text) {
  // Standalone translation (inspection surface): pin its own snapshot so
  // the path-dictionary scan reads a committed cut.
  rel::Snapshot snap = warehouse_->db()->BeginSnapshot();
  return TranslateAt(query_text, snap.epoch());
}

Result<Translation> XomatiQ::TranslateAt(std::string_view query_text,
                                         uint64_t read_epoch) {
  static common::Histogram* parse_hist = StageHist("xq.stage.parse");
  static common::Histogram* translate_hist = StageHist("xq.stage.translate");
  XQueryAst ast;
  {
    common::TraceSpan span("xq.parse", parse_hist);
    XQ_ASSIGN_OR_RETURN(ast, ParseXQuery(query_text));
  }
  common::TraceSpan span("xq.translate", translate_hist);
  return translator_.Translate(ast, read_epoch);
}

Result<XqResult> XomatiQ::Execute(const common::QueryRequest& req) {
  if (req.mode != common::QueryMode::kXq &&
      req.mode != common::QueryMode::kXqXml) {
    return Status::InvalidArgument(
        std::string("XomatiQ::Execute requires mode=xq or xq-xml, got ") +
        std::string(common::QueryModeName(req.mode)));
  }
  static common::Counter* queries =
      common::MetricsRegistry::Global().GetCounter("xq.queries");
  static common::Histogram* exec_hist = StageHist("xq.stage.execute");
  queries->Inc();
  // Outermost query-log scope for embedded XQuery use; under QueryService
  // the service's scope owns the record instead. Engine layers below
  // annotate plan fingerprint / est-vs-actual rows on whichever is armed.
  common::QueryLogScope qlog(req.text, "xquery");
  // One absolute deadline for the whole query: parsing, translation and
  // every generated SQL disjunct share the same budget.
  common::Deadline deadline = common::Deadline::After(req.options.deadline_ms);
  // ONE snapshot for the whole query: the path-dictionary translation and
  // every disjunct statement read the same committed cut, so a
  // multi-disjunct union can never mix pre- and post-sync states.
  rel::Snapshot snap;
  uint64_t epoch;
  if (req.read_epoch.has_value()) {
    epoch = *req.read_epoch;
  } else {
    snap = warehouse_->db()->BeginSnapshot();
    epoch = snap.epoch();
  }
  XQ_ASSIGN_OR_RETURN(Translation translation, TranslateAt(req.text, epoch));
  common::TraceSpan span("xq.execute", exec_hist);
  XqResult result;
  result.columns = translation.column_names;
  result.executed_sql = translation.sql;
  result.constructor_name = translation.constructor_name;
  result.collections = translation.collections;
  // Union the disjunct statements with set semantics, preserving the
  // first-seen order. Each statement streams its batches straight into
  // the result; no per-statement materialization. Statements run from
  // their structured ASTs — the rendered SQL text is never parsed here.
  std::set<rel::CompositeKey, rel::CompositeKeyLess> seen;
  const sql::Executor::BatchSink sink = [&](rel::RowBatch& batch) {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (seen.insert(batch.row(i)).second) {
        result.rows.push_back(batch.row(i));
      }
    }
    return true;
  };
  for (const auto& stmt : translation.stmts) {
    XQ_RETURN_IF_ERROR(
        engine_.ExecuteSelectStmtBatched(*stmt, sink, deadline, epoch)
            .status());
  }
  return result;
}

Result<std::string> XomatiQ::Explain(std::string_view query_text) {
  XQ_ASSIGN_OR_RETURN(Translation translation, Translate(query_text));
  std::string out;
  for (size_t s = 0; s < translation.stmts.size(); ++s) {
    XQ_ASSIGN_OR_RETURN(std::string plan_text,
                        engine_.ExplainSelectStmt(*translation.stmts[s]));
    out += translation.sql[s] + "\n" + plan_text + "\n";
  }
  return out;
}

xml::XmlDocument XomatiQ::ResultsAsXml(const XqResult& result) const {
  static common::Histogram* tag_hist = StageHist("xq.stage.tag");
  common::TraceSpan span("xq.tag", tag_hist);
  return TagResults(result.columns, result.rows, "results",
                    result.constructor_name.empty() ? "result"
                                                    : result.constructor_name);
}

Result<std::string> XomatiQ::FormatDtdTree(
    const std::string& collection) const {
  const hounds::Warehouse::Collection* c =
      warehouse_->FindCollection(collection);
  if (c == nullptr) {
    return Status::NotFound("unknown collection: " + collection);
  }
  return c->dtd.FormatTree(c->root_element);
}

// --- builders -------------------------------------------------------------

namespace {

// Variable names for builder-generated queries: $a, $b, $c, ...
std::string VarName(size_t i) {
  return std::string(1, static_cast<char>('a' + (i % 26)));
}

// Ensures a path fragment starts with '/' or '//'.
std::string NormalizePath(const std::string& path) {
  if (path.empty() || path[0] == '/') return path;
  return "//" + path;
}

}  // namespace

KeywordQueryBuilder& KeywordQueryBuilder::AddDatabase(
    std::string collection, std::string root_element,
    std::string return_path) {
  dbs_.push_back({std::move(collection), std::move(root_element),
                  NormalizePath(return_path)});
  return *this;
}

KeywordQueryBuilder& KeywordQueryBuilder::SetKeyword(std::string keyword) {
  keyword_ = std::move(keyword);
  return *this;
}

std::string KeywordQueryBuilder::Build() const {
  std::string out = "FOR ";
  for (size_t i = 0; i < dbs_.size(); ++i) {
    if (i > 0) out += ",\n    ";
    out += "$" + VarName(i) + " IN document(\"" + dbs_[i].collection +
           "\")/" + dbs_[i].root;
  }
  out += "\nWHERE ";
  for (size_t i = 0; i < dbs_.size(); ++i) {
    if (i > 0) out += "\nAND   ";
    out += "contains($" + VarName(i) + ", \"" + keyword_ + "\", any)";
  }
  out += "\nRETURN ";
  for (size_t i = 0; i < dbs_.size(); ++i) {
    if (i > 0) out += ",\n       ";
    out += "$" + VarName(i) + dbs_[i].return_path;
  }
  return out;
}

SubtreeQueryBuilder::SubtreeQueryBuilder(std::string collection,
                                         std::string root_element)
    : collection_(std::move(collection)), root_(std::move(root_element)) {}

SubtreeQueryBuilder& SubtreeQueryBuilder::AddCondition(
    std::string subtree_path, std::string keyword) {
  conditions_.push_back("contains($a" + NormalizePath(subtree_path) +
                        ", \"" + keyword + "\")");
  return *this;
}

SubtreeQueryBuilder& SubtreeQueryBuilder::AddComparison(
    std::string path, std::string op, std::string literal) {
  conditions_.push_back("$a" + NormalizePath(path) + " " + op + " \"" +
                        literal + "\"");
  return *this;
}

SubtreeQueryBuilder& SubtreeQueryBuilder::SetDisjunctive(bool disjunctive) {
  disjunctive_ = disjunctive;
  return *this;
}

SubtreeQueryBuilder& SubtreeQueryBuilder::AddReturn(std::string path) {
  returns_.push_back("$a" + NormalizePath(path));
  return *this;
}

std::string SubtreeQueryBuilder::Build() const {
  std::string out =
      "FOR $a IN document(\"" + collection_ + "\")/" + root_;
  if (!conditions_.empty()) {
    out += "\nWHERE ";
    for (size_t i = 0; i < conditions_.size(); ++i) {
      if (i > 0) out += disjunctive_ ? "\nOR    " : "\nAND   ";
      out += conditions_[i];
    }
  }
  out += "\nRETURN ";
  for (size_t i = 0; i < returns_.size(); ++i) {
    if (i > 0) out += ",\n       ";
    out += returns_[i];
  }
  return out;
}

JoinQueryBuilder::JoinQueryBuilder(std::string left_collection,
                                   std::string left_path,
                                   std::string right_collection,
                                   std::string right_path)
    : left_collection_(std::move(left_collection)),
      left_path_(std::move(left_path)),
      right_collection_(std::move(right_collection)),
      right_path_(std::move(right_path)) {}

JoinQueryBuilder& JoinQueryBuilder::AddJoin(std::string left_join_path,
                                            std::string right_join_path) {
  joins_.emplace_back(NormalizePath(left_join_path),
                      NormalizePath(right_join_path));
  return *this;
}

JoinQueryBuilder& JoinQueryBuilder::AddLeftCondition(
    std::string raw_condition) {
  conditions_.push_back(std::move(raw_condition));
  return *this;
}

JoinQueryBuilder& JoinQueryBuilder::AddReturn(char side, std::string path,
                                              std::string alias) {
  returns_.push_back({side, NormalizePath(path), std::move(alias)});
  return *this;
}

std::string JoinQueryBuilder::Build() const {
  std::string out = "FOR $a IN document(\"" + left_collection_ + "\")" +
                    left_path_ + ",\n    $b IN document(\"" +
                    right_collection_ + "\")" + right_path_;
  std::string where;
  for (const auto& [left, right] : joins_) {
    if (!where.empty()) where += "\nAND   ";
    where += "$a" + left + " = $b" + right;
  }
  for (const std::string& cond : conditions_) {
    if (!where.empty()) where += "\nAND   ";
    where += cond;
  }
  if (!where.empty()) out += "\nWHERE " + where;
  out += "\nRETURN ";
  for (size_t i = 0; i < returns_.size(); ++i) {
    if (i > 0) out += ",\n       ";
    const Ret& r = returns_[i];
    if (!r.alias.empty()) out += "$" + r.alias + " = ";
    out += std::string("$") + r.side + r.path;
  }
  return out;
}

}  // namespace xomatiq::xq
