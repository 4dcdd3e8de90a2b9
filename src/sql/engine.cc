#include "sql/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>

#include "common/metrics.h"
#include "common/query_log.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "relational/serde.h"
#include "sql/compiled_expr.h"
#include "sql/executor.h"
#include "sql/expr_eval.h"
#include "sql/parser.h"

namespace xomatiq::sql {

using common::Result;
using common::Status;
using rel::RowId;
using rel::Tuple;
using rel::Value;

std::string QueryResult::ToTable() const {
  std::vector<size_t> widths(schema.size());
  for (size_t c = 0; c < schema.size(); ++c) {
    widths[c] = schema.column(c).name.size();
  }
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (const Tuple& row : rows) {
    std::vector<std::string> line;
    for (size_t c = 0; c < row.size(); ++c) {
      line.push_back(row[c].ToString());
      widths[c] = std::max(widths[c], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  auto rule = [&] {
    std::string out = "+";
    for (size_t w : widths) out += std::string(w + 2, '-') + "+";
    return out + "\n";
  };
  std::string out = rule();
  out += "|";
  for (size_t c = 0; c < schema.size(); ++c) {
    const std::string& name = schema.column(c).name;
    out += " " + name + std::string(widths[c] - name.size(), ' ') + " |";
  }
  out += "\n" + rule();
  for (const auto& line : cells) {
    out += "|";
    for (size_t c = 0; c < line.size(); ++c) {
      out += " " + line[c] + std::string(widths[c] - line[c].size(), ' ') +
             " |";
    }
    out += "\n";
  }
  out += rule();
  out += std::to_string(rows.size()) + " row(s)\n";
  return out;
}

namespace {

uint64_t EngineNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Marks the chosen plan's fingerprint on the current trace (when one is
// installed): a zero-duration span named "sql.plan.fp=XXXXXXXX", the CRC32
// of the rendered plan tree. Lets trace consumers spot plan changes (e.g.
// after ANALYZE flips a query to the cost-based path) without diffing
// whole EXPLAIN outputs. The same fingerprint, planner mode and root
// estimate also annotate the in-flight query-log record.
void LogPlanFingerprint(const PlanNode& plan) {
  common::Trace* trace = common::Trace::Current();
  common::QueryLogRecord* rec = common::QueryLogScope::Current();
  if (trace == nullptr && rec == nullptr) return;
  uint32_t fp = rel::Crc32(plan.ToString());
  if (trace != nullptr) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "sql.plan.fp=%08x", fp);
    trace->EndSpan(trace->BeginSpan(buf));
  }
  if (rec != nullptr) {
    rec->plan_fp = fp;
    // est_rows >= 0 iff the cost-based planner annotated the tree
    // (rule-based plans stay uncosted by design).
    rec->planner = plan.est_rows >= 0 ? "cost" : "rule";
    rec->est_rows =
        plan.est_rows >= 0 ? static_cast<int64_t>(plan.est_rows) : -1;
  }
}

// After execution: if the query has already crossed the slow threshold,
// capture its EXPLAIN ANALYZE rendering into the armed query-log record
// while the plan (and its per-operator actuals) is still alive. Callers
// enable stats collection whenever a record is armed, so the rendering
// carries real actuals.
void MaybeCaptureSlowPlan(const PlanNode& plan) {
  common::QueryLogRecord* rec = common::QueryLogScope::Current();
  if (rec == nullptr) return;
  uint64_t elapsed = EngineNowNs() - rec->start_ns;
  if (elapsed < common::QueryLog::Global().slow_threshold_ns()) return;
  rec->explain = plan.ToString(0, /*analyze=*/true);
}

// Text rendering of the slow-query ring for the SLOW QUERIES statement
// (/queryz serves the JSON view of the same records).
std::string RenderSlowQueries() {
  common::QueryLog& log = common::QueryLog::Global();
  std::vector<common::QueryLogRecord> slow = log.Slow();
  std::string out = common::StrFormat(
      "%zu slow quer%s (threshold %.3f ms, newest first)\n", slow.size(),
      slow.size() == 1 ? "y" : "ies",
      static_cast<double>(log.slow_threshold_ns()) / 1e6);
  for (const common::QueryLogRecord& rec : slow) {
    out += common::StrFormat(
        "-- #%llu  %.3f ms  mode=%s planner=%s fp=%08x est_rows=%lld "
        "actual_rows=%lld cached=%s status=%s\n",
        static_cast<unsigned long long>(rec.id),
        static_cast<double>(rec.latency_ns) / 1e6, rec.mode.c_str(),
        rec.planner.empty() ? "-" : rec.planner.c_str(), rec.plan_fp,
        static_cast<long long>(rec.est_rows),
        static_cast<long long>(rec.actual_rows),
        rec.cache_hit ? "yes" : "no", rec.ok ? "ok" : rec.error.c_str());
    out += rec.text + "\n";
    if (!rec.explain.empty()) out += rec.explain;
  }
  return out;
}

}  // namespace

Result<QueryResult> SqlEngine::Execute(const common::QueryRequest& req) {
  if (req.mode != common::QueryMode::kSql) {
    return Status::InvalidArgument(
        std::string("SqlEngine::Execute requires mode=sql, got ") +
        std::string(common::QueryModeName(req.mode)));
  }
  // Registered once; the registry hands back stable pointers, so the hot
  // path is one atomic add plus the histogram record.
  static common::Counter* queries =
      common::MetricsRegistry::Global().GetCounter("sql.queries");
  queries->Inc();
  // Owns the query-log record when the engine is the outermost layer
  // (embedded use); under QueryService the service's scope owns it and
  // this one is a no-op observer.
  common::QueryLogScope qlog(req.text, "sql");
  Result<QueryResult> result =
      ExecuteImpl(req.text, req.options, req.read_epoch);
  if (common::QueryLogRecord* rec = common::QueryLogScope::Current()) {
    if (!result.ok()) {
      rec->ok = false;
      rec->error = result.status().message();
    } else if (rec->actual_rows < 0) {
      rec->actual_rows = static_cast<int64_t>(result->rows.size());
    }
  }
  return result;
}

Result<QueryResult> SqlEngine::ExecuteImpl(
    std::string_view sql, const common::QueryOptions& opts,
    std::optional<uint64_t> read_epoch) {
  static common::Histogram* parse_hist =
      common::MetricsRegistry::Global().GetHistogram("sql.stage.parse");
  // The relative budget becomes absolute exactly once, here, so parsing
  // and planning draw from the same clock as execution.
  common::Deadline deadline = common::Deadline::After(opts.deadline_ms);
  Statement stmt;
  {
    common::TraceSpan span("sql.parse", parse_hist);
    XQ_ASSIGN_OR_RETURN(stmt, ParseStatement(sql));
  }
  // Statement-level concurrency (see rel::Database): SELECT / EXPLAIN
  // pin a snapshot epoch and run latch-free; DML / DDL / ANALYZE take the
  // write latch through rel::WriteGuard, which publishes the statement's
  // epoch as one batch on release. Parsing happens above with neither. A
  // caller-supplied read token (`read_epoch`) replaces snapshot
  // acquisition: the caller owns a live rel::Snapshot at that epoch.
  auto pin_read = [&](rel::Snapshot* snap) -> uint64_t {
    if (read_epoch.has_value()) return *read_epoch;
    *snap = db_->BeginSnapshot();
    return snap->epoch();
  };
  switch (stmt.kind) {
    case StatementKind::kCreateTable: {
      std::vector<rel::Column> cols;
      for (const ColumnDefAst& c : stmt.create_table.columns) {
        cols.push_back({c.name, c.type, c.not_null});
      }
      rel::WriteGuard guard(db_);
      XQ_RETURN_IF_ERROR(db_->CreateTable(stmt.create_table.table,
                                          rel::Schema(std::move(cols))));
      return QueryResult{};
    }
    case StatementKind::kCreateIndex: {
      rel::IndexDef def;
      def.name = stmt.create_index.index;
      def.table = stmt.create_index.table;
      def.columns = stmt.create_index.columns;
      def.kind = stmt.create_index.kind;
      def.unique = stmt.create_index.unique;
      rel::WriteGuard guard(db_);
      XQ_RETURN_IF_ERROR(db_->CreateIndex(def));
      return QueryResult{};
    }
    case StatementKind::kDrop: {
      rel::WriteGuard guard(db_);
      if (stmt.drop.is_table) {
        XQ_RETURN_IF_ERROR(db_->DropTable(stmt.drop.name));
      } else {
        XQ_RETURN_IF_ERROR(db_->DropIndex(stmt.drop.name));
      }
      return QueryResult{};
    }
    case StatementKind::kInsert: {
      rel::WriteGuard guard(db_);
      return ExecuteInsert(stmt.insert);
    }
    case StatementKind::kSelect: {
      rel::Snapshot snap;
      uint64_t epoch = pin_read(&snap);
      return ExecuteSelect(stmt.select, /*explain_only=*/false,
                           /*analyze=*/false, deadline, epoch);
    }
    case StatementKind::kExplain: {
      // Plain EXPLAIN prints the plan without running it; EXPLAIN ANALYZE
      // runs the query with stats collection and prints the same tree
      // annotated with per-operator actuals.
      rel::Snapshot snap;
      uint64_t epoch = pin_read(&snap);
      return ExecuteSelect(stmt.select, /*explain_only=*/!stmt.analyze,
                           /*analyze=*/stmt.analyze, deadline, epoch);
    }
    case StatementKind::kDelete: {
      rel::WriteGuard guard(db_);
      return ExecuteDelete(stmt.del);
    }
    case StatementKind::kUpdate: {
      rel::WriteGuard guard(db_);
      return ExecuteUpdate(stmt.update);
    }
    case StatementKind::kStats: {
      QueryResult result;
      result.explain_text =
          common::MetricsRegistry::Global().Snapshot().ToPrometheusText();
      return result;
    }
    case StatementKind::kResetStats:
      common::MetricsRegistry::Global().Reset();
      return QueryResult{};
    case StatementKind::kSlowQueries: {
      QueryResult result;
      result.explain_text = RenderSlowQueries();
      return result;
    }
    case StatementKind::kAnalyze: {
      rel::WriteGuard guard(db_);
      return ExecuteAnalyze(stmt.analyze_stmt);
    }
    case StatementKind::kWalStatus: {
      // Field/value rows so shells and scripts can read one position
      // without parsing the metrics dump. Shared latch (not a snapshot:
      // this reads WAL positions, not the heap): LSNs and WAL byte
      // counts must come from one writer-quiescent instant.
      std::shared_lock lock(db_->latch());
      QueryResult result;
      result.schema =
          rel::Schema({{"field", rel::ValueType::kText, false},
                       {"value", rel::ValueType::kText, false}});
      auto add = [&result](const char* field, std::string value) {
        result.rows.push_back(
            {Value::Text(field), Value::Text(std::move(value))});
      };
      add("durable", db_->durable() ? "true" : "false");
      add("durable_lsn", std::to_string(db_->durable_lsn()));
      add("applied_lsn", std::to_string(db_->applied_lsn()));
      add("committed_lsn", std::to_string(db_->committed_lsn()));
      add("wal_bytes", std::to_string(db_->wal_bytes()));
      add("records_recovered", std::to_string(db_->records_recovered()));
      add("recovered_torn_tail",
          db_->recovered_torn_tail() ? "true" : "false");
      return result;
    }
  }
  return Status::Internal("bad statement kind");
}

Result<QueryResult> SqlEngine::ExecuteAnalyze(const AnalyzeStmt& stmt) {
  std::vector<std::string> targets;
  if (stmt.table.empty()) {
    targets = db_->TableNames();
  } else {
    targets.push_back(stmt.table);
  }
  QueryResult result;
  result.schema = rel::Schema({{"table", rel::ValueType::kText, false},
                               {"rows", rel::ValueType::kInt, false},
                               {"columns", rel::ValueType::kInt, false}});
  for (const std::string& name : targets) {
    XQ_RETURN_IF_ERROR(db_->Analyze(name));
    std::shared_ptr<const rel::TableStats> stats = db_->StatsFor(name);
    result.rows.push_back(
        {Value::Text(name),
         Value::Int(static_cast<int64_t>(stats->row_count)),
         Value::Int(static_cast<int64_t>(stats->columns.size()))});
    ++result.affected;
  }
  return result;
}

Result<QueryResult> SqlEngine::ExecuteSelect(const SelectStmt& stmt,
                                             bool explain_only, bool analyze,
                                             common::Deadline deadline,
                                             uint64_t epoch) {
  static common::Histogram* plan_hist =
      common::MetricsRegistry::Global().GetHistogram("sql.stage.plan");
  static common::Histogram* exec_hist =
      common::MetricsRegistry::Global().GetHistogram("sql.stage.execute");
  PlanPtr plan;
  {
    common::TraceSpan span("sql.plan", plan_hist);
    XQ_ASSIGN_OR_RETURN(plan, planner_.PlanSelect(stmt));
  }
  LogPlanFingerprint(*plan);
  QueryResult result;
  result.schema = plan->schema;
  if (explain_only) {
    result.explain_text = plan->ToString();
    return result;
  }
  ExecutorOptions exec_options = options_.executor;
  exec_options.deadline = deadline;
  exec_options.snapshot_epoch = epoch;
  // Collect per-operator actuals whenever a query-log record is armed, so
  // a query that turns out slow can capture a fully annotated EXPLAIN
  // ANALYZE tree after the fact (stats cannot be gathered retroactively;
  // the per-batch counting overhead is noise).
  bool log_armed = common::QueryLogScope::Current() != nullptr;
  if (analyze || log_armed) {
    exec_options.collect_stats = true;
    plan->ClearStats();
  }
  Executor executor(db_, exec_options);
  {
    common::TraceSpan span("sql.execute", exec_hist);
    XQ_ASSIGN_OR_RETURN(result.rows, executor.ExecuteToVector(*plan));
  }
  if (common::QueryLogRecord* rec = common::QueryLogScope::Current()) {
    rec->actual_rows = static_cast<int64_t>(result.rows.size());
  }
  MaybeCaptureSlowPlan(*plan);
  if (analyze) {
    // EXPLAIN ANALYZE returns the annotated tree, not the result rows.
    result.explain_text = plan->ToString(0, /*analyze=*/true);
    result.rows.clear();
  }
  return result;
}

Result<rel::Schema> SqlEngine::ExecuteSelectStmtBatched(
    const SelectStmt& stmt, const Executor::BatchSink& sink,
    common::Deadline deadline, std::optional<uint64_t> read_epoch) {
  static common::Histogram* plan_hist =
      common::MetricsRegistry::Global().GetHistogram("sql.stage.plan");
  static common::Histogram* exec_hist =
      common::MetricsRegistry::Global().GetHistogram("sql.stage.execute");
  // Pin a snapshot unless the caller already owns one and passed its
  // epoch (XomatiQ evaluates all disjuncts of one query at one epoch).
  rel::Snapshot snap;
  uint64_t epoch;
  if (read_epoch.has_value()) {
    epoch = *read_epoch;
  } else {
    snap = db_->BeginSnapshot();
    epoch = snap.epoch();
  }
  PlanPtr plan;
  {
    common::TraceSpan span("sql.plan", plan_hist);
    XQ_ASSIGN_OR_RETURN(plan, planner_.PlanSelect(stmt));
  }
  LogPlanFingerprint(*plan);
  ExecutorOptions exec_options = options_.executor;
  exec_options.deadline = deadline;
  exec_options.snapshot_epoch = epoch;
  bool log_armed = common::QueryLogScope::Current() != nullptr;
  if (log_armed) {
    exec_options.collect_stats = true;
    plan->ClearStats();
  }
  Executor executor(db_, exec_options);
  {
    common::TraceSpan span("sql.execute", exec_hist);
    XQ_RETURN_IF_ERROR(executor.ExecuteBatched(*plan, sink));
  }
  if (common::QueryLogRecord* rec = common::QueryLogScope::Current()) {
    rec->actual_rows = static_cast<int64_t>(plan->stats.rows_out);
  }
  MaybeCaptureSlowPlan(*plan);
  return plan->schema;
}

Result<std::string> SqlEngine::ExplainSelectStmt(const SelectStmt& stmt) {
  // Planning reads catalog shape and stats; a snapshot's shared DDL hold
  // keeps both stable without touching the write latch.
  rel::Snapshot snap = db_->BeginSnapshot();
  XQ_ASSIGN_OR_RETURN(PlanPtr plan, planner_.PlanSelect(stmt));
  return plan->ToString();
}

Result<QueryResult> SqlEngine::ExecuteInsert(const InsertStmt& stmt) {
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(stmt.table));
  const rel::Schema& schema = table->schema();
  // Map column-name list to positions (empty list = positional).
  std::vector<size_t> positions;
  if (!stmt.columns.empty()) {
    for (const std::string& col : stmt.columns) {
      XQ_ASSIGN_OR_RETURN(size_t idx, schema.ResolveColumn(col));
      positions.push_back(idx);
    }
  }
  QueryResult result;
  EvalScratch scratch;
  for (const std::vector<ExprPtr>& row_exprs : stmt.rows) {
    Tuple tuple(schema.size(), Value::Null());
    size_t arity = positions.empty() ? schema.size() : positions.size();
    if (row_exprs.size() != arity) {
      return Status::InvalidArgument("INSERT arity mismatch for table " +
                                     stmt.table);
    }
    for (size_t i = 0; i < row_exprs.size(); ++i) {
      // VALUES expressions are constant: evaluated against an empty row.
      XQ_ASSIGN_OR_RETURN(CompiledExpr prog,
                          CompiledExpr::Compile(*row_exprs[i]));
      XQ_ASSIGN_OR_RETURN(tuple[positions.empty() ? i : positions[i]],
                          prog.EvalRow({}, &scratch));
    }
    XQ_ASSIGN_OR_RETURN(RowId row, db_->Insert(stmt.table, std::move(tuple)));
    (void)row;
    ++result.affected;
  }
  return result;
}

namespace {

// Collects RowIds of live rows matching `where` (null = all).
Result<std::vector<RowId>> MatchRows(rel::Database* db,
                                     const std::string& table_name,
                                     const ExprPtr& where) {
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db->GetTable(table_name));
  std::optional<CompiledExpr> pred;
  if (where) {
    ExprPtr bound = where->Clone();
    XQ_RETURN_IF_ERROR(Bind(bound.get(), table->schema()));
    XQ_ASSIGN_OR_RETURN(pred, CompiledExpr::Compile(*bound));
  }
  std::vector<RowId> rows;
  Status inner;
  EvalScratch scratch;
  table->Scan([&](RowId row, const Tuple& tuple) {
    if (pred) {
      auto v = pred->EvalRowRef(tuple, &scratch);
      if (!v.ok()) {
        inner = v.status();
        return false;
      }
      std::optional<bool> pass = Truthiness(**v);
      if (!pass.has_value() || !*pass) return true;
    }
    rows.push_back(row);
    return true;
  });
  XQ_RETURN_IF_ERROR(inner);
  return rows;
}

}  // namespace

Result<QueryResult> SqlEngine::ExecuteDelete(const DeleteStmt& stmt) {
  XQ_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                      MatchRows(db_, stmt.table, stmt.where));
  for (RowId row : rows) {
    XQ_RETURN_IF_ERROR(db_->Delete(stmt.table, row));
  }
  QueryResult result;
  result.affected = rows.size();
  return result;
}

Result<QueryResult> SqlEngine::ExecuteUpdate(const UpdateStmt& stmt) {
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(stmt.table));
  const rel::Schema& schema = table->schema();
  std::vector<std::pair<size_t, CompiledExpr>> sets;
  for (const auto& [col, expr] : stmt.sets) {
    XQ_ASSIGN_OR_RETURN(size_t idx, schema.ResolveColumn(col));
    ExprPtr bound = expr->Clone();
    XQ_RETURN_IF_ERROR(Bind(bound.get(), schema));
    XQ_ASSIGN_OR_RETURN(CompiledExpr prog, CompiledExpr::Compile(*bound));
    sets.emplace_back(idx, std::move(prog));
  }
  XQ_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                      MatchRows(db_, stmt.table, stmt.where));
  EvalScratch scratch;
  for (RowId row : rows) {
    XQ_ASSIGN_OR_RETURN(const Tuple* current, table->Get(row));
    Tuple updated = *current;
    for (const auto& [idx, prog] : sets) {
      XQ_ASSIGN_OR_RETURN(updated[idx], prog.EvalRow(*current, &scratch));
    }
    XQ_RETURN_IF_ERROR(db_->Update(stmt.table, row, std::move(updated)));
  }
  QueryResult result;
  result.affected = rows.size();
  return result;
}

}  // namespace xomatiq::sql
