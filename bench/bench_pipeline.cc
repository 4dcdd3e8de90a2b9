// Batched-pipeline benchmark: the same queries executed by the batched
// pipeline (RowBatch + compiled expression programs) and with a parallel
// sequential scan. Workloads are the paper's keyword+join shape over the
// full generated corpus. Writes BENCH_pipeline.json beside the stdout
// table.
//
// Plain main (no google-benchmark) so both modes run the same queries and
// row counts can be cross-checked between them.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "exec/worker_pool.h"
#include "relational/database.h"
#include "relational/wal.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace {

using xomatiq::benchutil::GetWarehouse;
using xomatiq::benchutil::JsonReport;
using xomatiq::benchutil::Unwrap;
using xomatiq::rel::RowBatch;
using xomatiq::sql::Executor;
using xomatiq::sql::PlanNode;
using xomatiq::sql::PlanPtr;
using xomatiq::sql::Planner;
using xomatiq::sql::PlannerOptions;
using xomatiq::sql::Statement;
using xomatiq::sql::StatementKind;

struct Workload {
  std::string name;
  std::vector<std::string> sql;
};

template <typename F>
double BestOfSeconds(int reps, F&& run) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    run();
    auto t1 = std::chrono::steady_clock::now();
    double s = std::chrono::duration<double>(t1 - t0).count();
    if (s < best) best = s;
  }
  return best;
}

std::vector<PlanPtr> PlanAll(Planner* planner,
                             const std::vector<std::string>& sqls) {
  std::vector<PlanPtr> plans;
  for (const std::string& sql : sqls) {
    Statement stmt = Unwrap(xomatiq::sql::ParseStatement(sql), "parse");
    if (stmt.kind != StatementKind::kSelect) {
      std::fprintf(stderr, "workload statement is not a SELECT\n");
      std::abort();
    }
    plans.push_back(Unwrap(planner->PlanSelect(stmt.select), "plan"));
  }
  return plans;
}

size_t RunBatched(Executor* exec, const std::vector<PlanPtr>& plans) {
  size_t rows = 0;
  for (const PlanPtr& plan : plans) {
    xomatiq::benchutil::Check(exec->ExecuteBatched(*plan,
                                                   [&](RowBatch& batch) {
                                                     rows += batch.size();
                                                     return true;
                                                   }),
                              "batched exec");
  }
  return rows;
}

// Flattens one plan tree's EXPLAIN ANALYZE actuals into report metrics:
// op<N>_<Kind>_rows / _ms per operator, preorder. Fused children carry
// zero counters by design (their work is in the parent's numbers).
void AddOperatorStats(const PlanNode& node, int* index,
                      std::vector<std::pair<std::string, double>>* out) {
  std::string key =
      "op" + std::to_string((*index)++) + "_" +
      std::string(xomatiq::sql::PlanKindName(node.kind));
  out->emplace_back(key + "_rows", static_cast<double>(node.stats.rows_out));
  out->emplace_back(key + "_ms", static_cast<double>(node.stats.ns) / 1e6);
  for (const auto& child : node.children) {
    AddOperatorStats(*child, index, out);
  }
}

struct OverheadResult {
  double t_on;   // best-of seconds with the feature on
  double t_off;  // best-of seconds with it off
  double overhead_pct;
};

// Measures the relative cost of a feature whose true delta (~tens of ns
// per op) sits far below run-to-run filesystem and frequency jitter:
// on/off runs are paired adjacent in time with alternating order so
// drift cancels within a pair, and the median of per-pair ratios rejects
// outlier pairs entirely.
template <typename F>
OverheadResult MeasureOverhead(int pairs, F&& run) {
  run(true);  // warm-up: page cache, lazily built tables
  run(false);
  std::vector<double> ratios;
  double t_on = 1e100;
  double t_off = 1e100;
  for (int i = 0; i < pairs; ++i) {
    double a;
    double b;
    if (i % 2 == 0) {
      a = run(true);
      b = run(false);
    } else {
      b = run(false);
      a = run(true);
    }
    t_on = std::min(t_on, a);
    t_off = std::min(t_off, b);
    ratios.push_back(a / b);
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  return {t_on, t_off, (ratios[ratios.size() / 2] - 1.0) * 100.0};
}

// Prices the per-record CRC32-C on the write path with the checksum on
// and off (WalOptions::checksum is the bench-only escape hatch), two
// ways. The budgeted metric (wal_checksum_overhead_pct, <5%) is measured
// on the engine's real write path — Database::Insert, i.e. encode + heap
// + index maintenance + WAL append — because that is what user writes
// pay. The raw WAL append loop is also reported (append_* keys) as the
// stress ceiling: there nothing amortizes the hash, and the hardware
// CRC32-C still lands in single-digit percent of the fwrite+fflush cost.
void BenchWalChecksum(JsonReport* report, int reps) {
  constexpr size_t kRecords = 50000;
  const std::string payload(256, 'x');  // typical shredded-tuple record
  std::string path =
      (std::filesystem::temp_directory_path() / "xq_bench_wal.log").string();
  // Times only the append loop (Open/remove excluded).
  auto time_appends = [&](bool checksum) {
    std::filesystem::remove(path);
    xomatiq::rel::WalOptions options;
    options.checksum = checksum;
    auto wal =
        Unwrap(xomatiq::rel::WriteAheadLog::Open(path, options), "wal open");
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kRecords; ++i) {
      xomatiq::benchutil::Check(wal->Append(payload), "wal append");
    }
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  int micro_reps = std::max(reps, 25);
  OverheadResult append = MeasureOverhead(micro_reps, time_appends);
  std::filesystem::remove(path);
  double append_ns_crc = append.t_on / kRecords * 1e9;
  double append_ns_plain = append.t_off / kRecords * 1e9;

  // The budgeted path: logged Database::Insert end to end.
  constexpr size_t kRows = 20000;
  std::string db_dir =
      (std::filesystem::temp_directory_path() / "xq_bench_wal_db").string();
  auto time_inserts = [&](bool checksum) {
    std::filesystem::remove_all(db_dir);
    xomatiq::rel::Database::DbOptions options;
    options.wal.checksum = checksum;
    auto db = Unwrap(xomatiq::rel::Database::Open(db_dir, options), "db open");
    xomatiq::benchutil::Check(
        db->CreateTable(
            "bench", xomatiq::rel::Schema(
                         {{"id", xomatiq::rel::ValueType::kInt, true},
                          {"body", xomatiq::rel::ValueType::kText, false}})),
        "create table");
    xomatiq::benchutil::Check(
        db->CreateIndex({"bench_id", "bench", {"id"},
                         xomatiq::rel::IndexKind::kBTree, false}),
        "create index");
    // Typical shredded-row text payload: xml_node rows are a handful of
    // ints, xml_text values average around a hundred characters.
    const std::string body(120, 'y');
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kRows; ++i) {
      xomatiq::benchutil::Check(
          db->Insert("bench", {xomatiq::rel::Value::Int(static_cast<int64_t>(i)),
                               xomatiq::rel::Value::Text(body)})
              .status(),
          "insert");
    }
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  OverheadResult insert = MeasureOverhead(micro_reps, time_inserts);
  std::filesystem::remove_all(db_dir);
  double insert_ns_crc = insert.t_on / kRows * 1e9;
  double insert_ns_plain = insert.t_off / kRows * 1e9;

  std::printf("%-18s %11.0fns %11.0fns %21.2f%% checksum overhead\n",
              "wal_append", append_ns_crc, append_ns_plain,
              append.overhead_pct);
  std::printf("%-18s %11.0fns %11.0fns %21.2f%% checksum overhead\n",
              "logged_insert", insert_ns_crc, insert_ns_plain,
              insert.overhead_pct);
  report->Add("wal_append",
              {{"records", static_cast<double>(kRecords)},
               {"payload_bytes", static_cast<double>(payload.size())},
               {"append_checksum_ns", append_ns_crc},
               {"append_nochecksum_ns", append_ns_plain},
               {"append_overhead_pct", append.overhead_pct},
               {"insert_rows", static_cast<double>(kRows)},
               {"insert_checksum_ns", insert_ns_crc},
               {"insert_nochecksum_ns", insert_ns_plain},
               {"wal_checksum_overhead_pct", insert.overhead_pct}});
}

// Morsel-driven parallel execution at scale: join-, aggregation- and
// sort-heavy queries over a 150k-row fact table, three ways per query.
//
//   serial_ms    — plans with parallel annotation suppressed.
//   parallel_ms  — planner-chosen parallel plans on the process pool; the
//                  pool sizes itself from the host (hw - 1 workers), so on
//                  a single-core machine admission keeps every operator
//                  serial and this column tracks serial_ms instead of
//                  paying fan-out overhead. Aggregates always run
//                  serially; only their input scan or join fans out.
//   forced4_ms   — the same parallel plans forced through an explicit
//                  4-worker pool regardless of host width: a diagnostic
//                  that the fan-out machinery itself runs under bench
//                  conditions, not a planner-chosen configuration.
void BenchParallelExec(JsonReport* report, int reps) {
  constexpr size_t kFactRows = 150000;
  constexpr size_t kDimRows = 50000;
  constexpr int64_t kGroups = 512;
  auto db = xomatiq::rel::Database::OpenInMemory();
  xomatiq::benchutil::Check(
      db->CreateTable("fact", xomatiq::rel::Schema(
                                  {{"id", xomatiq::rel::ValueType::kInt, true},
                                   {"k", xomatiq::rel::ValueType::kInt, false},
                                   {"grp", xomatiq::rel::ValueType::kInt, false},
                                   {"val", xomatiq::rel::ValueType::kInt,
                                    false}})),
      "create fact");
  xomatiq::benchutil::Check(
      db->CreateTable("dim", xomatiq::rel::Schema(
                                 {{"id", xomatiq::rel::ValueType::kInt, true},
                                  {"val", xomatiq::rel::ValueType::kInt,
                                   false}})),
      "create dim");
  std::mt19937 rng(1234);
  for (size_t i = 0; i < kFactRows; ++i) {
    xomatiq::benchutil::Check(
        db->Insert("fact",
                   {xomatiq::rel::Value::Int(static_cast<int64_t>(i)),
                    xomatiq::rel::Value::Int(
                        static_cast<int64_t>(rng() % kDimRows)),
                    xomatiq::rel::Value::Int(
                        static_cast<int64_t>(rng()) % kGroups),
                    xomatiq::rel::Value::Int(
                        static_cast<int64_t>(rng() % 1000))})
            .status(),
        "insert fact");
  }
  for (size_t i = 0; i < kDimRows; ++i) {
    xomatiq::benchutil::Check(
        db->Insert("dim", {xomatiq::rel::Value::Int(static_cast<int64_t>(i)),
                           xomatiq::rel::Value::Int(
                               static_cast<int64_t>(rng() % 1000))})
            .status(),
        "insert dim");
  }

  struct ParallelWorkload {
    std::string name;
    std::string sql;
  };
  const ParallelWorkload workloads[] = {
      {"parallel_join_agg",
       "SELECT f.grp, COUNT(*), SUM(f.val) FROM fact f, dim d "
       "WHERE f.k = d.id GROUP BY f.grp"},
      {"parallel_agg",
       "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val) FROM fact "
       "GROUP BY grp"},
      {"parallel_sort", "SELECT k, val, id FROM fact ORDER BY val, k"},
  };

  PlannerOptions serial_options;
  serial_options.parallel_scan_threshold = static_cast<size_t>(-1);
  Planner serial_planner(db.get(), serial_options);
  Planner par_planner(db.get());  // defaults: degree = hardware width
  Executor exec(db.get());

  xomatiq::exec::WorkerPool pool4(4);
  xomatiq::sql::ExecutorOptions forced_options;
  forced_options.pool = &pool4;
  Executor forced_exec(db.get(), forced_options);
  PlannerOptions forced_plan_options;
  forced_plan_options.parallel_degree = 4;
  Planner forced_planner(db.get(), forced_plan_options);

  unsigned cores = std::thread::hardware_concurrency();
  std::printf("%-18s %12s %12s %12s %9s %9s  (cores=%u)\n", "workload",
              "serial", "parallel", "forced4", "speedup", "rows", cores);
  for (const ParallelWorkload& w : workloads) {
    std::vector<PlanPtr> serial_plans = PlanAll(&serial_planner, {w.sql});
    std::vector<PlanPtr> par_plans = PlanAll(&par_planner, {w.sql});
    std::vector<PlanPtr> forced_plans = PlanAll(&forced_planner, {w.sql});

    size_t rows_serial = RunBatched(&exec, serial_plans);
    size_t rows_par = RunBatched(&exec, par_plans);
    size_t rows_forced = RunBatched(&forced_exec, forced_plans);
    if (rows_serial != rows_par || rows_serial != rows_forced) {
      std::fprintf(stderr, "row count mismatch in %s: %zu/%zu/%zu\n",
                   w.name.c_str(), rows_serial, rows_par, rows_forced);
      std::abort();
    }

    // More reps than the front section: serial and planner-chosen
    // parallel are expected to track each other closely (identical plans
    // on a single-core host), so the comparison needs jitter below the
    // few-percent level.
    int preps = std::max(reps, 7);
    double t_serial =
        BestOfSeconds(preps, [&] { RunBatched(&exec, serial_plans); });
    double t_par = BestOfSeconds(preps, [&] { RunBatched(&exec, par_plans); });
    double t_forced =
        BestOfSeconds(reps, [&] { RunBatched(&forced_exec, forced_plans); });
    double speedup = t_par > 0 ? t_serial / t_par : 0;

    std::printf("%-18s %11.3fms %11.3fms %11.3fms %8.2fx %9zu\n",
                w.name.c_str(), t_serial * 1e3, t_par * 1e3, t_forced * 1e3,
                speedup, rows_serial);
    report->Add(w.name, {{"rows", static_cast<double>(rows_serial)},
                         {"serial_ms", t_serial * 1e3},
                         {"parallel_ms", t_par * 1e3},
                         {"forced_pool4_ms", t_forced * 1e3},
                         {"speedup_parallel", speedup},
                         {"cores", static_cast<double>(cores)}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = argc > 1 ? static_cast<size_t>(std::atol(argv[1])) : 2000;
  int reps = argc > 2 ? std::atoi(argv[2]) : 3;
  auto* fx = GetWarehouse(n);
  xomatiq::rel::Database* db = fx->db.get();

  std::vector<Workload> workloads;
  // The paper's Fig 8 keyword+join query (two keyword scans joined), as
  // translated by XQ2SQL.
  workloads.push_back(
      {"fig8_keyword_join",
       Unwrap(fx->xomatiq->Translate(xomatiq::benchutil::Fig8Query()),
              "translate fig8")
           .sql});
  // Fig 11 EC-number join (value join between collections).
  workloads.push_back(
      {"fig11_ec_join",
       Unwrap(fx->xomatiq->Translate(xomatiq::benchutil::Fig11Query()),
              "translate fig11")
           .sql});
  // Full-table scan + predicate over the text store: LIKE defeats every
  // index, so this measures the raw scan/filter/project pipeline.
  workloads.push_back(
      {"scan_filter_like",
       {"SELECT node_id, value FROM xml_text WHERE value LIKE '%cdc6%'"}});
  // Scan + filter feeding an equi-join (hash/index-NL inner side).
  workloads.push_back(
      {"scan_filter_join",
       {"SELECT t.node_id, n.ordinal, t.value FROM xml_text t, xml_node n "
        "WHERE t.value LIKE '%cdc6%' AND t.node_id = n.node_id"}});
  // Headline: multi-keyword disjunction over the text store joined back to
  // the node table — the paper's keyword-query shape. The OR-of-LIKEs is
  // where compiled programs + scan fusion pay off most, and the join
  // verifies the pair-predicate path end to end.
  workloads.push_back(
      {"multi_keyword_join",
       {"SELECT t.node_id, n.ordinal FROM xml_text t, xml_node n "
        "WHERE (t.value LIKE '%cdc6%' OR t.value LIKE '%kinase%') "
        "AND t.node_id = n.node_id"}});

  Planner planner(db);
  // Parallel-scan planner: every seq scan of consequence becomes a
  // ParallelSeqScan with an explicit degree (the container may report a
  // single hardware thread; correctness is what is measured there).
  PlannerOptions par_options;
  par_options.parallel_scan_threshold = 1;
  par_options.parallel_degree = 4;
  Planner par_planner(db, par_options);
  Executor exec(db);
  // Stats-collecting executor: times the same batched plans with
  // per-operator actuals on, so the report carries both the observability
  // overhead and the per-operator breakdown.
  xomatiq::sql::ExecutorOptions stats_options;
  stats_options.collect_stats = true;
  Executor stats_exec(db, stats_options);

  JsonReport report("BENCH_pipeline.json");
  std::printf("%-18s %12s %12s %9s\n", "workload", "batched", "parallel",
              "rows");
  for (const Workload& w : workloads) {
    std::vector<PlanPtr> plans = PlanAll(&planner, w.sql);
    std::vector<PlanPtr> par_plans = PlanAll(&par_planner, w.sql);

    size_t rows_batch = RunBatched(&exec, plans);
    size_t rows_par = RunBatched(&exec, par_plans);
    if (rows_batch != rows_par) {
      std::fprintf(stderr, "row count mismatch in %s: %zu/%zu\n",
                   w.name.c_str(), rows_batch, rows_par);
      return 1;
    }

    double t_batch = BestOfSeconds(reps, [&] { RunBatched(&exec, plans); });
    double t_par = BestOfSeconds(reps, [&] { RunBatched(&exec, par_plans); });
    // Per-operator stats collection priced with the paired-median harness
    // (budgeted at <= 5%): the true delta is a clock read and a few
    // counter bumps per batch, far below run-to-run jitter, so unpaired
    // best-of runs routinely report double-digit phantom overhead.
    OverheadResult stats =
        MeasureOverhead(std::max(reps * 3, 15), [&](bool on) {
          if (on) {
            for (const PlanPtr& plan : plans) plan->ClearStats();
          }
          auto t0 = std::chrono::steady_clock::now();
          RunBatched(on ? &stats_exec : &exec, plans);
          auto t1 = std::chrono::steady_clock::now();
          return std::chrono::duration<double>(t1 - t0).count();
        });
    std::printf("%-18s %11.3fms %11.3fms %9zu\n", w.name.c_str(),
                t_batch * 1e3, t_par * 1e3, rows_batch);
    std::vector<std::pair<std::string, double>> metrics = {
        {"n", static_cast<double>(n)},
        {"rows", static_cast<double>(rows_batch)},
        {"batched_ms", t_batch * 1e3},
        {"parallel_ms", t_par * 1e3},
        {"batched_stats_ms", stats.t_on * 1e3},
        {"stats_overhead_pct", stats.overhead_pct}};
    // The last timed stats run left its actuals on the plan nodes; embed
    // the per-operator breakdown (single-statement workloads only keep
    // the flattened keys unambiguous — disjunct unions get per-plan
    // prefixes from the preorder index continuing across statements).
    int op_index = 0;
    for (const PlanPtr& plan : plans) {
      AddOperatorStats(*plan, &op_index, &metrics);
    }
    report.Add(w.name, std::move(metrics));
  }
  BenchParallelExec(&report, reps);
  BenchWalChecksum(&report, reps);
  if (!report.Write()) return 1;
  std::printf("wrote BENCH_pipeline.json\n");
  // Process-wide metrics snapshot (scan/WAL/index counters, stage
  // histograms) alongside the per-workload report, via the shared JSON
  // export helper.
  std::FILE* mf = std::fopen("BENCH_pipeline_metrics.json", "w");
  if (mf != nullptr) {
    std::string snap =
        xomatiq::common::MetricsRegistry::Global().Snapshot().ToJson();
    std::fwrite(snap.data(), 1, snap.size(), mf);
    std::fclose(mf);
    std::printf("wrote BENCH_pipeline_metrics.json\n");
  }
  return 0;
}
