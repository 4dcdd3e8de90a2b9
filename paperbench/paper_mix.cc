// In-process workloads: paper_mix (n=2000, rule-based plans, as the server
// ships) and paper_mix_analyzed (n=500, after ANALYZE, cost-based plans).

#include <algorithm>
#include <sstream>

#include "bench.h"
#include "client/client.h"
#include "server/server.h"
#include "xml/writer.h"

namespace xomatiq::paperbench {

using common::Result;
using common::Status;

// ---------------------------------------------------------------------
// One XomatiQ query in process
// ---------------------------------------------------------------------

Result<XqOutcome> RunXq(xq::XomatiQ* x, const std::string& text,
                        bool as_xml) {
  XqOutcome out;
  XQ_ASSIGN_OR_RETURN(xq::XqResult result,
                      x->Execute(common::QueryRequest::Xq(text)));
  out.statements = result.executed_sql.size();
  if (as_xml) {
    xml::XmlDocument doc = x->ResultsAsXml(result);
    common::TraceSpan span("xml.write");
    out.xml = xml::WriteXml(doc);
    doc = xml::XmlDocument();  // the DOM's release belongs to this span
  }
  out.rows = std::move(result.rows);
  return out;
}

// ---------------------------------------------------------------------
// The paper catalog
// ---------------------------------------------------------------------

namespace {

// Fig 8 terms and their share of keyword ops: the paper's planted "cdc6"
// in 6 of every 10, plus common corpus vocabulary, so result sizes vary
// about 10x. cdc6 is the slowest term and 6% of all reads, so the read p95
// rank lies inside its band and the keyword median is its median, not a
// boundary between terms.
const std::vector<std::pair<std::string, size_t>> kKeywordTerms = {
    {"cdc6", 6}, {"kinase", 1}, {"dehydrogenase", 1}, {"glucose", 1},
    {"alanine", 1}};
// Fig 9 words: catalytic-activity vocabulary, including the paper's
// "ketone"; every one selects 5-15% of enzymes.
const std::vector<std::string> kSubtreeWords = {
    "ketone", "glucose", "pyruvate", "alanine",
    "citrate", "lactate", "malate", "glutamate"};

// Fig 11 return lists (the join itself is the same in each).
const std::vector<std::vector<std::string>> kJoinReturns = {
    {"//embl_accession_number", "//description"},
    {"//embl_accession_number"},
    {"//embl_accession_number", "//description", "//organism"},
    {"//entry_name", "//embl_accession_number"}};

// Ops per round, by mode: 1 keyword, 4 sub-tree, 2 join, 3 view.
constexpr size_t kRoundKeyword = 1, kRoundSubtree = 4, kRoundJoin = 2,
                 kRoundView = 3;
constexpr size_t kRoundOps =
    kRoundKeyword + kRoundSubtree + kRoundJoin + kRoundView;

struct PaperOp {
  Mode mode = Mode::kKeyword;
  size_t index = 0;  // into queries (XQ modes) or pages (view)
};

std::vector<CatalogQuery> PaperQueries() {
  std::vector<CatalogQuery> queries;
  for (const auto& [term, weight] : kKeywordTerms) {
    CatalogQuery q;
    q.mode = Mode::kKeyword;
    q.word = term;
    q.weight = weight;
    q.right_returns = {"//sprot_accession_number"};
    q.returns = {"//embl_accession_number"};
    q.text = KeywordText(term, q.right_returns[0], q.returns[0], true);
    queries.push_back(std::move(q));
  }
  for (const std::string& word : kSubtreeWords) {
    CatalogQuery q;
    q.mode = Mode::kSubtree;
    q.collection = kEnzyme;
    q.cond_path = "//catalytic_activity";
    q.word = word;
    q.returns = {"//enzyme_id", "//enzyme_description"};
    q.text = SubtreeText(kEnzyme, "hlx_enzyme", q.cond_path, word, q.returns);
    queries.push_back(std::move(q));
  }
  for (const auto& returns : kJoinReturns) {
    CatalogQuery q;
    q.mode = Mode::kJoin;
    q.returns = returns;
    q.text = JoinText("", returns);
    queries.push_back(std::move(q));
  }
  return queries;
}

// One cycle: every catalog entry used in proportion to its weight, rounds
// of fixed mode composition, order drawn from the seed. Runs end on cycle
// boundaries so every run's per-mode samples cover the same multiset of
// queries.
std::vector<PaperOp> MakeCycle(const std::vector<CatalogQuery>& queries,
                               size_t num_pages, common::Rng* rng) {
  std::vector<size_t> by_mode[3];
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t w = 0; w < queries[i].weight; ++w) {
      by_mode[static_cast<int>(queries[i].mode)].push_back(i);
    }
  }
  auto shuffle = [&](auto& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng->Uniform(i)]);
  };
  std::vector<size_t> pages(num_pages);
  for (size_t i = 0; i < num_pages; ++i) pages[i] = i;
  for (auto& v : by_mode) shuffle(v);
  shuffle(pages);
  // Rounds per cycle: enough for every keyword slot and every page once.
  size_t rounds = std::max(by_mode[0].size() / kRoundKeyword,
                           num_pages / kRoundView);
  size_t next[4] = {0, 0, 0, 0};
  std::vector<PaperOp> cycle;
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<PaperOp> round;
    auto take = [&](Mode mode, size_t count) {
      int m = static_cast<int>(mode);
      for (size_t k = 0; k < count; ++k) {
        size_t idx = mode == Mode::kView
                         ? pages[next[m]++ % pages.size()]
                         : by_mode[m][next[m]++ % by_mode[m].size()];
        round.push_back({mode, idx});
      }
    };
    take(Mode::kKeyword, kRoundKeyword);
    take(Mode::kSubtree, kRoundSubtree);
    take(Mode::kJoin, kRoundJoin);
    take(Mode::kView, kRoundView);
    shuffle(round);
    cycle.insert(cycle.end(), round.begin(), round.end());
  }
  return cycle;
}

// Per-op record of the timed phases.
struct OpSample {
  Mode mode = Mode::kKeyword;
  double ms = 0;
  bool ok = true;
  size_t result_rows = 0;
  size_t statements = 0;
  uint64_t rows_touched = 0;  // rel.table.rows_fetched + rows_scanned
};

struct Phase {
  std::vector<OpSample> ops;
  double op_ms = 0;  // sum of op latencies
  double OpsPerS() const { return op_ms > 0 ? ops.size() * 1000.0 / op_ms : 0; }
};

}  // namespace

RunResult RunPaperMix(const RunConfig& config, bool analyzed) {
  RunResult res;
  const size_t n = config.smoke ? 60 : (analyzed ? 500 : 2000);
  const size_t setups = config.smoke ? 2 : 5;
  // Enough syncs for a steady median: each is ~150 ms at n=2000 and
  // ~30 ms at n=500. Not more: each sync makes the next a little slower.
  const size_t syncs = config.smoke ? 2 : (analyzed ? 40 : 16);
  const size_t page_docs = config.smoke ? 5 : 20;
  const size_t num_pages = 10 * kRoundView;
  OpTraces& traces = GlobalTraces();

  // --- oracle (not timed) ---------------------------------------------
  FlatFiles files = MakeFlatFiles(n, config.seed);
  auto oracle_or = LoadOracle(files);
  if (!oracle_or.ok()) {
    res.Fail("oracle load: " + oracle_or.status().ToString());
    return res;
  }
  std::unique_ptr<Oracle> oracle = std::move(oracle_or).value();
  std::vector<CatalogQuery> queries = PaperQueries();
  JoinCache join_cache;
  for (CatalogQuery& q : queries) {
    auto answer = NativeAnswer(oracle->store, q, &join_cache);
    if (!answer.ok()) {
      res.Fail("native answer: " + answer.status().ToString());
      return res;
    }
    q.expected = *answer;
  }
  common::Rng rng(config.seed);
  std::vector<Page> pages =
      PickPages(*oracle, num_pages, page_docs, {kEmbl, kSprot, kEnzyme}, &rng);
  std::vector<PaperOp> cycle = MakeCycle(queries, pages.size(), &rng);
  // The expectations are all computed: free the oracle before set-up so
  // peak_rss_mb is the warehouse's and its traffic's.
  oracle.reset();
  join_cache.clear();
  const double oracle_hwm_mb = PeakRssMb();

  // --- set-up, several times; the last one is kept ----------------------
  Stack stack;
  std::vector<double> setup_s;
  uint64_t wal_bytes = 0;
  std::vector<uint64_t> unanalyzed(queries.size(), 0);
  traces.SetEnabled(config.trace);
  CounterSnapshot setup_before = CounterSnapshot::Take();
  CpuRotation setup_rotation;
  for (size_t k = 0; k < setups; ++k) {
    setup_rotation.Next();
    stack = Stack();
    Clock::time_point start = Clock::now();
    FlatFiles load_files = MakeFlatFiles(n, config.seed);
    uint64_t wal_before = CounterValue("rel.wal.bytes_appended");
    auto loaded = LoadStack(load_files, "");
    if (!loaded.ok()) {
      res.Fail("load: " + loaded.status().ToString());
      return res;
    }
    stack = std::move(loaded).value();
    double elapsed_ms = MsSince(start);
    wal_bytes = CounterValue("rel.wal.bytes_appended") - wal_before;
    if (analyzed) {
      if (k + 1 == setups) {
        // Unanalyzed answers on this corpus (untimed), for the
        // analyzed-equals-unanalyzed check below.
        traces.SetEnabled(false);
        for (size_t i = 0; i < queries.size(); ++i) {
          auto out = RunXq(stack.xomatiq.get(), queries[i].text, false);
          if (!out.ok()) {
            res.Fail("unanalyzed " + queries[i].text + ": " +
                     out.status().ToString());
            continue;
          }
          unanalyzed[i] = RowSetHash(RowsOf(out->rows));
        }
      }
      Clock::time_point analyze_start = Clock::now();
      auto analyze = stack.xomatiq->engine()->Execute("ANALYZE");
      if (!analyze.ok()) {
        res.Fail("ANALYZE: " + analyze.status().ToString());
        return res;
      }
      elapsed_ms += MsSince(analyze_start);
    }
    setup_s.push_back(elapsed_ms / 1000.0);
  }
  setup_rotation.Release();
  CounterSnapshot setup_after = CounterSnapshot::Take();
  traces.SetEnabled(false);

  // --- warm-up pass = answer check of every distinct op -----------------
  size_t check_failed = 0;
  auto fail_check = [&](const std::string& what) {
    ++check_failed;
    res.Fail(what);
  };
  std::vector<uint64_t> expected_xml(queries.size(), 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    const CatalogQuery& q = queries[i];
    auto out = RunXq(stack.xomatiq.get(), q.text, q.mode == Mode::kJoin);
    if (!out.ok()) {
      fail_check("oracle run " + q.text + ": " + out.status().ToString());
      continue;
    }
    uint64_t h = RowSetHash(RowsOf(out->rows));
    if (h != q.expected) {
      fail_check(std::string(kModeNames[static_cast<int>(q.mode)]) +
                 " answer differs from the native DOM store: " + q.text);
    } else if (analyzed && h != unanalyzed[i]) {
      fail_check("analyzed answer differs from unanalyzed: " + q.text);
    } else if (q.mode == Mode::kJoin) {
      auto xml_rows = RowsOfXml(out->xml);
      if (!xml_rows.ok() || RowSetHash(*xml_rows) != q.expected) {
        fail_check("tagged XML rows differ from the native answer: " + q.text);
      }
      expected_xml[i] = Fnv1a(out->xml);
    }
  }
  for (const Page& page : pages) {
    auto docs = ViewPage(stack.warehouse.get(), page);
    if (!docs.ok() || PageHash(*docs) != page.expected) {
      fail_check("reconstructed page differs from the transformed documents");
    }
  }
  if (!res.correct) {
    res.attempted = queries.size() + pages.size();
    res.failed = check_failed;
    return res;
  }

  // --- timed phases -----------------------------------------------------
  auto run_op = [&](const PaperOp& op, Phase* phase) {
    OpSample s;
    s.mode = op.mode;
    uint64_t touched_before = CounterValue("rel.table.rows_fetched") +
                              CounterValue("rel.table.rows_scanned");
    Clock::time_point start = Clock::now();
    uint64_t got = 0, want = 0;
    if (op.mode == Mode::kView) {
      TracedOp traced(kViewOp);
      auto docs = ViewPage(stack.warehouse.get(), pages[op.index]);
      traced.End();
      s.ms = MsSince(start);
      s.ok = docs.ok();
      got = docs.ok() ? PageHash(*docs) : 0;
      want = pages[op.index].expected;
    } else {
      const CatalogQuery& q = queries[op.index];
      bool as_xml = q.mode == Mode::kJoin;
      TracedOp traced(kXqOpNames[static_cast<int>(q.mode)]);
      auto out = RunXq(stack.xomatiq.get(), q.text, as_xml);
      traced.End();
      s.ms = MsSince(start);
      s.ok = out.ok();
      if (out.ok()) {
        s.result_rows = out->rows.size();
        s.statements = out->statements;
        got = as_xml ? Fnv1a(out->xml) : RowSetHash(RowsOf(out->rows));
        want = as_xml ? expected_xml[op.index] : q.expected;
      }
    }
    s.rows_touched = CounterValue("rel.table.rows_fetched") +
                     CounterValue("rel.table.rows_scanned") - touched_before;
    if (s.ok && got != want) s.ok = false;
    phase->ops.push_back(s);
    phase->op_ms += s.ms;
  };
  // Whole cycles until `seconds` of wall time have passed, moving to the
  // next CPU every round of ops.
  auto run_phase = [&](double seconds) {
    Phase phase;
    CpuRotation rotation;
    Clock::time_point start = Clock::now();
    do {
      for (size_t i = 0; i < cycle.size(); ++i) {
        if (i % kRoundOps == 0) rotation.Next();
        run_op(cycle[i], &phase);
      }
    } while (MsSince(start) < seconds * 1000.0);
    return phase;
  };

  Phase untraced, traced;
  CounterSnapshot before, after;
  int64_t max_garbage = 0;
  if (!config.trace) {
    untraced = run_phase(config.seconds);
  } else {
    // Same cycles untraced, then traced: the ops/s ratio is the tracing
    // overhead; per-layer numbers come from the traced half only.
    untraced = run_phase(config.seconds / 2);
    traces.SetEnabled(true);
    before = CounterSnapshot::Take();
    traced = run_phase(config.seconds / 2);
    after = CounterSnapshot::Take();
    max_garbage = after.Gauge("rel.mvcc.garbage_versions");
  }
  const Phase& main_phase = config.trace ? traced : untraced;

  // --- Data Hounds sync probe (after the timed reads) -------------------
  const SyncTransformer sync_tf;
  std::vector<double> sync_ms;
  size_t docs_written = 0, docs_changed = 0, sync_failed = 0;
  CounterSnapshot sync_before = CounterSnapshot::Take();
  for (CpuRotation rotation; sync_ms.size() < syncs;) {
    rotation.Next();
    const size_t s = sync_ms.size();
    const std::string& raw = s % 2 == 0 ? files.embl_variant : files.embl;
    Clock::time_point start = Clock::now();
    Result<hounds::UpdateStats> stats = hounds::UpdateStats{};
    {
      TracedOp op(kSyncOp);
      common::TraceSpan span("datahounds.sync");
      stats = stack.warehouse->SyncSource(kEmbl, sync_tf, raw);
    }
    sync_ms.push_back(MsSince(start));
    max_garbage = std::max(max_garbage,
                           CounterSnapshot::Take().Gauge("rel.mvcc.garbage_versions"));
    if (!stats.ok() || stats->updated != files.changed_uris.size() ||
        stats->added != 0 || stats->removed != 0) {
      res.Fail("sync did not rewrite exactly the changed documents");
      ++sync_failed;
      continue;
    }
    docs_written += stats->added + stats->updated + stats->removed;
    docs_changed += files.changed_uris.size();
  }
  CounterSnapshot sync_after = CounterSnapshot::Take();

  // --- end-to-end metrics ------------------------------------------------
  size_t failed = 0;
  std::vector<double> all_ms, mode_ms[4];
  for (const OpSample& s : main_phase.ops) {
    if (!s.ok) {
      ++failed;
      continue;
    }
    all_ms.push_back(s.ms);
    mode_ms[static_cast<int>(s.mode)].push_back(s.ms);
  }
  if (config.trace) {
    for (const OpSample& s : untraced.ops) failed += s.ok ? 0 : 1;
  }
  res.attempted = main_phase.ops.size() + syncs +
                  (config.trace ? untraced.ops.size() : 0);
  res.failed = failed + sync_failed;
  if (res.failed > 0) res.correct = false;

  std::ostringstream extra;
  extra << "\"planner\": \"" << (analyzed ? "cost-based (ANALYZE)" : "rule-based")
        << "\", \"storage\": \"in-memory\", \"setups\": " << setups
        << ", \"cycle_ops\": " << cycle.size() << ", \"timed_ops\": "
        << main_phase.ops.size() << ", \"syncs\": " << syncs;
  res.Info("env", EnvStampJson(config, n, extra.str()));

  if (!config.trace) {
    res.Metric("setup_s", Median(setup_s), "s");
    res.Metric("peak_rss_mb", PeakRssMb(), "MB");
    res.Metric("ops_per_s", untraced.OpsPerS(), "1/s");
    res.Metric("read_p95_ms", Percentile(all_ms, 0.95), "ms");
    res.Metric("keyword_ms", Median(mode_ms[0]), "ms");
    res.Metric("subtree_ms", Median(mode_ms[1]), "ms");
    res.Metric("join_ms", Median(mode_ms[2]), "ms");
    res.Metric("view_ms", Median(mode_ms[3]), "ms");
    res.Metric("sync_ms", Median(sync_ms), "ms");
    std::ostringstream counts;
    counts << "{\"reads\": " << all_ms.size() << ", \"keyword\": "
           << mode_ms[0].size() << ", \"subtree\": " << mode_ms[1].size()
           << ", \"join\": " << mode_ms[2].size() << ", \"view\": "
           << mode_ms[3].size() << ", \"syncs\": " << sync_ms.size()
           << ", \"failed_share\": "
           << double(res.failed) / std::max<uint64_t>(1, res.attempted)
           << ", \"oracle_hwm_mb\": " << oracle_hwm_mb << "}";
    res.Info("samples", counts.str());
    return res;
  }

  // --- per-layer metrics (traced half) ----------------------------------
  LayerInputs in;
  for (const OpSample& s : traced.ops) {
    if (s.mode == Mode::kView) continue;
    int m = static_cast<int>(s.mode);
    ++in.xq_ops;
    in.statements += s.statements;
    in.result_rows[m] += s.result_rows;
    in.rows_touched[m] += s.rows_touched;
  }
  in.xq_before = in.ops_before = before;
  in.xq_after = in.ops_after = after;
  in.ops = traced.ops.size();
  in.setup_before = setup_before;
  in.setup_after = setup_after;
  in.load_wal_bytes = wal_bytes;
  in.load_input_bytes = files.Bytes();
  in.syncs = sync_ms.size();
  in.sync_before = sync_before;
  in.sync_after = sync_after;
  in.docs_written = docs_written;
  in.docs_changed = docs_changed;
  in.max_garbage_versions = max_garbage;
  in.untraced_ops_per_s = untraced.OpsPerS();
  in.traced_ops_per_s = traced.OpsPerS();

  // Wire probe: the catalog's sub-tree and join texts over a loopback
  // QueryServer with xomatiq_server's defaults, each sent twice (a miss,
  // then a hit at the same epoch). A miss's overhead is its round trip
  // minus the text's median in-process latency in the traced phase.
  std::map<size_t, std::vector<double>> inproc_ms;
  for (size_t c = 0; c < traced.ops.size(); ++c) {
    const PaperOp& op = cycle[c % cycle.size()];
    if (op.mode != Mode::kView) inproc_ms[op.index].push_back(traced.ops[c].ms);
  }
  in.wire_before = CounterSnapshot::Take();
  {
    srv::ServerOptions options;
    options.workers = 4;
    options.max_queue = 64;
    options.service.cache = std::make_shared<srv::ResultCache>(256);
    srv::QueryServer server(stack.warehouse.get(), options);
    Status started = server.Start();
    Result<cli::Client> client =
        started.ok() ? cli::Client::Connect("127.0.0.1", server.port())
                     : Result<cli::Client>(started);
    if (!client.ok()) res.Fail("wire probe: " + client.status().ToString());
    for (size_t i = 0; client.ok() && i < queries.size(); ++i) {
      const CatalogQuery& q = queries[i];
      if (q.mode == Mode::kKeyword) continue;
      common::QueryRequest req = common::QueryRequest::Xq(q.text);
      if (q.mode == Mode::kJoin) req.mode = common::QueryMode::kXqXml;
      for (int attempt = 0; attempt < 2; ++attempt) {
        Clock::time_point start = Clock::now();
        Result<srv::Response> resp = Status::OK();
        {
          TracedOp op(kWireOp);
          resp = client->Execute(req);
        }
        double rtt = MsSince(start);
        ++in.wire_reads;
        ++res.attempted;
        bool xml = req.mode == common::QueryMode::kXqXml;
        if (!resp.ok() || !resp->ok() ||
            ResponseHash(*resp, xml) != q.expected) {
          ++res.failed;
          res.Fail("wire answer differs: " + q.text);
        } else if (resp->cached()) {
          in.hit_rtt_ms.push_back(rtt);
        } else {
          in.miss_overhead_ms.push_back(rtt - Median(inproc_ms[i]));
        }
      }
    }
    server.Shutdown();
  }
  in.wire_after = CounterSnapshot::Take();
  traces.SetEnabled(false);
  EmitLayerMetrics(in, &res);
  return res;
}

}  // namespace xomatiq::paperbench
