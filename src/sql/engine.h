#ifndef XOMATIQ_SQL_ENGINE_H_
#define XOMATIQ_SQL_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/query_options.h"
#include "common/query_request.h"
#include "common/result.h"
#include "relational/database.h"
#include "relational/snapshot.h"
#include "sql/executor.h"
#include "sql/plan.h"
#include "sql/planner.h"

namespace xomatiq::sql {

// Engine-level knobs, forwarded to the planner and executor.
struct EngineOptions {
  PlannerOptions planner;
  ExecutorOptions executor;
};

// Result of one statement: rows for SELECT/EXPLAIN, affected count for DML.
struct QueryResult {
  rel::Schema schema;
  std::vector<rel::Tuple> rows;
  size_t affected = 0;
  std::string explain_text;  // set for EXPLAIN [ANALYZE] and STATS

  // Renders rows as a fixed-width ASCII table (the "simple table format"
  // result view of the paper's Figs 7(b)/12).
  std::string ToTable() const;
};

// Statement-level facade over parse -> plan -> execute. This is the full
// SQL surface XomatiQ's XQ2SQL translator targets.
//
// Thread-safety: Execute / ExecuteSelectStmtBatched may be called from many
// threads against one engine (or several engines over one Database).
// SELECT / EXPLAIN run latch-free under a rel::Snapshot — a pinned
// committed epoch — fully concurrent with writers; DML / DDL / ANALYZE
// serialize among themselves on the write latch via rel::WriteGuard and
// publish their batch's epoch on completion. A caller that already owns a
// snapshot (XomatiQ spanning several translated statements, a server
// Session) passes its epoch through QueryRequest::read_epoch and the
// engine skips acquiring one. Plan(), which hands back a raw plan without
// snapshotting, remains a single-threaded test/bench entry point.
class SqlEngine {
 public:
  explicit SqlEngine(rel::Database* db, EngineOptions options = {})
      : db_(db), options_(options), planner_(db, options.planner) {}

  // Parses and runs one statement (req.mode must be kSql). The relative
  // `req.options.deadline_ms` is converted to an absolute deadline here,
  // once; SELECT execution past it fails with kTimeout (DML/DDL run to
  // completion — partial mutations are worse than late ones).
  // `req.options.trace` / `bypass_cache` are honored by the layers that
  // own tracing and caching (server QueryService); the engine itself only
  // consumes the deadline and the snapshot read token.
  common::Result<QueryResult> Execute(const common::QueryRequest& req);

  // Shorthand for embedded/test use: Execute with default options.
  common::Result<QueryResult> Execute(std::string_view sql) {
    return Execute(common::QueryRequest::Sql(std::string(sql)));
  }

  // Plans a pre-parsed SELECT and streams its output batches into `sink`
  // without materializing the result set. Returns the output schema. No
  // lexing or parsing happens on this path. XomatiQ's direct XQ->plan
  // pipeline uses this for its translated statements (the generated SQL
  // text is rendered for display only). `deadline` is absolute so a
  // multi-statement caller shares one budget; `read_epoch` is the same
  // snapshot token as QueryRequest::read_epoch (XomatiQ runs all
  // disjuncts of one query against one snapshot).
  common::Result<rel::Schema> ExecuteSelectStmtBatched(
      const SelectStmt& stmt, const Executor::BatchSink& sink,
      common::Deadline deadline = {},
      std::optional<uint64_t> read_epoch = std::nullopt);

  // Plans a pre-parsed SELECT and returns its EXPLAIN rendering (used by
  // XomatiQ's EXPLAIN surface to show the final physical plan without
  // round-tripping through SQL text).
  common::Result<std::string> ExplainSelectStmt(const SelectStmt& stmt);

  // Plans a pre-parsed SELECT (exposed for tests and benchmarks).
  common::Result<PlanPtr> Plan(const SelectStmt& stmt) {
    return planner_.PlanSelect(stmt);
  }

  rel::Database* db() { return db_; }

 private:
  // Execute minus the query-log bookkeeping (the public wrapper owns the
  // QueryLogScope and stamps status/row counts on the record).
  common::Result<QueryResult> ExecuteImpl(std::string_view sql,
                                          const common::QueryOptions& opts,
                                          std::optional<uint64_t> read_epoch);
  // `analyze` = EXPLAIN ANALYZE: execute with per-operator stats
  // collection and return the annotated plan tree instead of the rows.
  // `epoch` is the snapshot epoch every heap read evaluates against; the
  // caller owns the Snapshot pinning it.
  common::Result<QueryResult> ExecuteSelect(const SelectStmt& stmt,
                                            bool explain_only, bool analyze,
                                            common::Deadline deadline,
                                            uint64_t epoch);
  // The one SELECT runner: plans `stmt` (sql.plan span, plan fingerprint)
  // and, unless `sink` is null (plain EXPLAIN), streams its output into
  // `sink` at `epoch` (sql.execute span), collecting per-operator actuals
  // for `analyze` or an armed query-log record. Returns the plan, which
  // then carries those actuals.
  common::Result<PlanPtr> RunSelect(const SelectStmt& stmt,
                                    const Executor::BatchSink* sink,
                                    bool analyze, common::Deadline deadline,
                                    uint64_t epoch);
  common::Result<QueryResult> ExecuteInsert(const InsertStmt& stmt);
  common::Result<QueryResult> ExecuteDelete(const DeleteStmt& stmt);
  common::Result<QueryResult> ExecuteUpdate(const UpdateStmt& stmt);
  common::Result<QueryResult> ExecuteAnalyze(const AnalyzeStmt& stmt);

  rel::Database* db_;
  EngineOptions options_;
  Planner planner_;
};

}  // namespace xomatiq::sql

#endif  // XOMATIQ_SQL_ENGINE_H_
