// wire_sync: two cli::Client readers over loopback against an in-process
// QueryServer (xomatiq_server's defaults), beside a Data Hounds writer that
// syncs EMBL every fixed number of completed reads, on a durable warehouse.

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>

#include "bench.h"
#include "client/client.h"
#include "server/server.h"

namespace xomatiq::paperbench {

using common::Result;
using common::Status;

namespace {

// xomatiq_server's defaults.
constexpr size_t kServerWorkers = 4;
constexpr size_t kServerQueue = 64;
constexpr size_t kCacheEntries = 256;
constexpr size_t kReaders = 2;
// Page views the writer makes after each sync.
constexpr size_t kViewsPerSync = 4;

const std::vector<std::string> kActions = {
    "dehydrogenase", "kinase",   "oxidase",    "monooxygenase", "transferase",
    "hydrolase",     "ligase",   "isomerase",  "reductase",     "synthase",
    "peptidase",     "phosphatase", "carboxylase", "decarboxylase"};
const std::vector<std::string> kSubstrates = {
    "alcohol", "peptidylglycine", "glucose",  "pyruvate",  "alanine",
    "glycerol", "lactate",        "citrate",  "malate",    "glutamate",
    "fructose", "succinate",      "histidine", "aspartate"};

// One cache key of the catalog: a distinct text in one wire mode.
struct WireKey {
  size_t query = 0;
  bool xml = false;
};

// Distinct texts: Fig 8 on the planted keyword (six RETURN orders, equal
// cost, so the keyword median does not depend on which one is hot), Fig 9
// shapes on the EMBL and Swiss-Prot descriptions (the larger collections,
// so a miss is dominated by execution rather than by thread hand-offs),
// and Fig 11 with description filters.
std::vector<CatalogQuery> WireQueries() {
  std::vector<CatalogQuery> queries;
  const std::pair<const char*, const char*> kw_returns[] = {
      {"//sprot_accession_number", "//embl_accession_number"},
      {"//entry_name", "//embl_accession_number"},
      {"//sprot_accession_number", "//entry_name"}};
  for (const auto& [b_ret, a_ret] : kw_returns) {
    for (bool b_first : {true, false}) {
      CatalogQuery q;
      q.mode = Mode::kKeyword;
      q.word = "cdc6";
      q.right_returns = {b_ret};
      q.returns = {a_ret};
      q.keyword_b_first = b_first;
      q.text = KeywordText(q.word, b_ret, a_ret, b_first);
      queries.push_back(std::move(q));
    }
  }
  auto subtree = [&](const char* collection, const char* root,
                     const char* cond, const std::vector<std::string>& words,
                     const std::vector<std::vector<std::string>>& returns) {
    for (const std::string& word : words) {
      for (const auto& ret : returns) {
        CatalogQuery q;
        q.mode = Mode::kSubtree;
        q.collection = collection;
        q.cond_path = cond;
        q.word = word;
        q.returns = ret;
        q.text = SubtreeText(collection, root, cond, word, ret);
        queries.push_back(std::move(q));
      }
    }
  };
  std::vector<std::string> names = kActions;
  names.insert(names.end(), kSubstrates.begin(), kSubstrates.end());
  subtree(kEmbl, "hlx_n_sequence", "//description", names,
          {{"//embl_accession_number"},
           {"//embl_accession_number", "//entry_name"},
           {"//entry_name"},
           {"//entry_name", "//organism"},
           {"//embl_accession_number", "//description"}});
  subtree(kSprot, "hlx_n_sequence", "//description", names,
          {{"//sprot_accession_number"},
           {"//sprot_accession_number", "//entry_name"},
           {"//entry_name"},
           {"//entry_name", "//organism"}});
  std::vector<std::string> filters = names;
  filters.push_back("");
  for (const std::string& word : filters) {
    for (const std::vector<std::string>& ret :
         std::vector<std::vector<std::string>>{
             {"//embl_accession_number"},
             {"//embl_accession_number", "//description"},
             {"//entry_name", "//embl_accession_number"}}) {
      CatalogQuery q;
      q.mode = Mode::kJoin;
      q.word = word;
      q.returns = ret;
      q.text = JoinText(word, ret);
      queries.push_back(std::move(q));
    }
  }
  return queries;
}

// Cache keys in Zipf rank order. Keys are grouped by cost class (mode,
// searched path, filtered or not, rows or XML); each group is shuffled by
// the seed and the groups are interleaved in proportion, so every window of
// ranks holds the same mix of cost classes whatever the seed.
std::vector<WireKey> RankKeys(const std::vector<CatalogQuery>& queries,
                              common::Rng* rng) {
  std::map<std::string, std::vector<WireKey>> by_class;
  for (size_t i = 0; i < queries.size(); ++i) {
    const CatalogQuery& q = queries[i];
    std::string cls = std::string(kModeNames[static_cast<int>(q.mode)]) + "|" +
                      q.collection + q.cond_path + "|" +
                      (q.mode == Mode::kJoin && q.word.empty() ? "all" : "");
    by_class[cls + "|rows"].push_back({i, false});
    by_class[cls + "|xml"].push_back({i, true});
  }
  std::vector<std::vector<WireKey>> groups;
  for (auto& [cls, keys] : by_class) {
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng->Uniform(i)]);
    }
    groups.push_back(std::move(keys));
  }
  std::vector<WireKey> ranked;
  std::vector<size_t> taken(groups.size(), 0);
  size_t total = 0;
  for (const auto& g : groups) total += g.size();
  while (ranked.size() < total) {
    // Next key from the group furthest behind its proportional share.
    size_t best = 0;
    double best_progress = 2;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (taken[g] == groups[g].size()) continue;
      double progress = (taken[g] + 0.5) / groups[g].size();
      if (progress < best_progress) {
        best_progress = progress;
        best = g;
      }
    }
    ranked.push_back(groups[best][taken[best]++]);
  }
  return ranked;
}

struct ReadSample {
  Mode mode = Mode::kKeyword;
  double ms = 0;
  bool cached = false;
  bool ok = true;
  WireKey key;
};

struct Durable {
  Stack stack;
  std::shared_ptr<srv::ResultCache> cache;
  std::unique_ptr<srv::QueryServer> server;
  std::string dir;

  void Stop() {
    if (server != nullptr) server->Shutdown();
    server.reset();
    stack = Stack();
  }
};

}  // namespace

RunResult RunWireSync(const RunConfig& config) {
  RunResult res;
  const size_t n = config.smoke ? 60 : 1000;
  const size_t setups = config.smoke ? 2 : 5;
  const size_t reads_per_sync = config.smoke ? 40 : 400;
  const size_t warmup_reads = config.smoke ? 20 : 200;
  const size_t page_docs = config.smoke ? 5 : 20;
  OpTraces& traces = GlobalTraces();

  // --- oracle (not timed) ---------------------------------------------
  FlatFiles files = MakeFlatFiles(n, config.seed);
  auto oracle_or = LoadOracle(files);
  if (!oracle_or.ok()) {
    res.Fail("oracle load: " + oracle_or.status().ToString());
    return res;
  }
  std::unique_ptr<Oracle> oracle = std::move(oracle_or).value();
  std::vector<CatalogQuery> queries = WireQueries();
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
  std::vector<WireKey> ranked = RankKeys(queries, &rng);
  // The writer's view pages: EMBL documents, some rewritten by each sync.
  std::vector<Page> pages = PickPages(*oracle, 16, page_docs, {kEmbl}, &rng);
  // Every document a sync rewrites: read back after the restart, it shows
  // whether the last sync survived.
  const Page changed_page = MakePage(*oracle, kEmbl, files.changed_uris);
  // The expectations are all computed: free the oracle before set-up so
  // peak_rss_mb is the warehouse's and its traffic's.
  oracle.reset();
  join_cache.clear();
  const double oracle_hwm_mb = PeakRssMb();

  // --- set-up: durable warehouse + server, several times ----------------
  // Removed on every exit path, after `live` (declared later) has stopped.
  struct ScratchDir {
    std::filesystem::path path;
    ~ScratchDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } base{std::filesystem::path(config.work_dir) /
         ("paperbench-wire_sync-" + std::to_string(config.seed))};
  std::error_code ec;
  std::filesystem::remove_all(base.path, ec);
  Durable live;
  std::vector<double> setup_s;
  uint64_t wal_bytes = 0;
  traces.SetEnabled(config.trace);
  CounterSnapshot setup_before = CounterSnapshot::Take();
  CpuRotation setup_rotation;  // each load on the next CPU
  for (size_t k = 0; k < setups; ++k) {
    if (k > 0) {
      live.Stop();
      std::filesystem::remove_all(live.dir, ec);
    }
    live.dir = (base.path / ("db" + std::to_string(k))).string();
    std::filesystem::create_directories(live.dir, ec);
    Clock::time_point start = Clock::now();
    FlatFiles load_files = MakeFlatFiles(n, config.seed);
    uint64_t wal_before = CounterValue("rel.wal.bytes_appended");
    setup_rotation.Next();
    auto loaded = LoadStack(load_files, live.dir);
    setup_rotation.Release();  // before the server starts its threads
    if (!loaded.ok()) {
      res.Fail("load: " + loaded.status().ToString());
      return res;
    }
    live.stack = std::move(loaded).value();
    live.cache = std::make_shared<srv::ResultCache>(kCacheEntries);
    srv::ServerOptions options;
    options.workers = kServerWorkers;
    options.max_queue = kServerQueue;
    options.service.cache = live.cache;
    live.server = std::make_unique<srv::QueryServer>(
        live.stack.warehouse.get(), options);
    if (auto started = live.server->Start(); !started.ok()) {
      res.Fail("server start: " + started.ToString());
      return res;
    }
    setup_s.push_back(MsSince(start) / 1000.0);
    wal_bytes = CounterValue("rel.wal.bytes_appended") - wal_before;
  }
  CounterSnapshot setup_after = CounterSnapshot::Take();
  traces.SetEnabled(false);

  // --- answer check of every distinct text, in process ------------------
  size_t check_failed = 0;
  for (const CatalogQuery& q : queries) {
    auto out = RunXq(live.stack.xomatiq.get(), q.text, false);
    if (!out.ok() || RowSetHash(RowsOf(out->rows)) != q.expected) {
      ++check_failed;
      res.Fail("answer differs from the native DOM store: " + q.text);
    }
  }
  for (const Page& page : pages) {
    auto docs = ViewPage(live.stack.warehouse.get(), page);
    if (!docs.ok() || PageHash(*docs) != page.expected) {
      ++check_failed;
      res.Fail("reconstructed page differs from the transformed documents");
    }
  }
  if (!res.correct) {
    res.attempted = queries.size() + pages.size();
    res.failed = check_failed;
    live.Stop();
    return res;
  }

  // --- readers and writer -----------------------------------------------
  std::vector<cli::Client> clients;
  for (size_t r = 0; r < kReaders; ++r) {
    auto client = cli::Client::Connect("127.0.0.1", live.server->port());
    if (!client.ok()) {
      res.Fail("connect: " + client.status().ToString());
      live.Stop();
      return res;
    }
    clients.push_back(std::move(client).value());
  }
  std::vector<common::Rng> draws;
  for (size_t r = 0; r < kReaders; ++r) {
    draws.emplace_back(config.seed * 1000003ull + r + 1);
  }

  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    size_t completed = 0;  // reads, across readers
    bool stop = false;
  };

  struct PhaseOut {
    std::vector<ReadSample> reads[kReaders];
    std::vector<double> sync_ms, view_ms;
    size_t sync_failed = 0, view_failed = 0;
    size_t docs_written = 0, docs_changed = 0;
    int64_t max_garbage = 0;
    double wall_ms = 0;

    size_t Ops() const {
      size_t ops = sync_ms.size() + view_ms.size();
      for (const auto& r : reads) ops += r.size();
      return ops;
    }
    double OpsPerS() const { return wall_ms > 0 ? Ops() * 1000.0 / wall_ms : 0; }
  };

  // One phase: readers run until `read_budget` reads (0 = until `seconds`
  // pass); the writer syncs every `reads_per_sync` completed reads.
  const SyncTransformer sync_tf;
  bool variant_live = false;
  size_t sync_count = 0;
  auto run_phase = [&](double seconds, size_t read_budget) {
    PhaseOut out;
    Shared shared;
    Clock::time_point start = Clock::now();
    auto reader = [&](size_t r) {
      cli::Client& client = clients[r];
      common::Rng& rng_r = draws[r];
      while (true) {
        {
          std::lock_guard<std::mutex> lock(shared.mu);
          if (shared.stop) break;
        }
        const WireKey& key = ranked[rng_r.Zipf(ranked.size())];
        const CatalogQuery& q = queries[key.query];
        common::QueryRequest req = common::QueryRequest::Xq(q.text);
        if (key.xml) req.mode = common::QueryMode::kXqXml;
        ReadSample s;
        s.mode = q.mode;
        s.key = key;
        Clock::time_point t0 = Clock::now();
        Result<srv::Response> resp = common::Status::OK();
        {
          TracedOp op(kWireOp);
          resp = client.Execute(req);
        }
        s.ms = MsSince(t0);
        s.ok = resp.ok() && resp->ok() &&
               ResponseHash(*resp, key.xml) == q.expected;
        s.cached = resp.ok() && resp->cached();
        out.reads[r].push_back(s);
        std::lock_guard<std::mutex> lock(shared.mu);
        ++shared.completed;
        if (read_budget > 0 && shared.completed >= read_budget) {
          shared.stop = true;
        }
        shared.cv.notify_all();
      }
    };
    auto writer = [&]() {
      size_t next = reads_per_sync;
      while (true) {
        {
          std::unique_lock<std::mutex> lock(shared.mu);
          shared.cv.wait(lock, [&] {
            return shared.stop || shared.completed >= next;
          });
          if (shared.stop) break;
        }
        next += reads_per_sync;
        // Sync: alternate the revised and the original EMBL file.
        const std::string& raw =
            variant_live ? files.embl : files.embl_variant;
        Clock::time_point t0 = Clock::now();
        Result<hounds::UpdateStats> stats = hounds::UpdateStats{};
        {
          TracedOp op(kSyncOp);
          common::TraceSpan span("datahounds.sync");
          stats = live.stack.warehouse->SyncSource(kEmbl, sync_tf, raw);
        }
        out.sync_ms.push_back(MsSince(t0));
        ++sync_count;
        if (!stats.ok() || stats->updated != files.changed_uris.size() ||
            stats->added != 0 || stats->removed != 0) {
          ++out.sync_failed;
        } else {
          variant_live = !variant_live;
          out.docs_written += stats->added + stats->updated + stats->removed;
          out.docs_changed += files.changed_uris.size();
        }
        out.max_garbage = std::max(
            out.max_garbage,
            CounterSnapshot::Take().Gauge("rel.mvcc.garbage_versions"));
        // Fig 7b views of pages the sync may have rewritten.
        for (size_t v = 0; v < kViewsPerSync; ++v) {
          const Page& page = pages[(sync_count * kViewsPerSync + v) % pages.size()];
          Clock::time_point v0 = Clock::now();
          Result<std::vector<std::string>> docs = std::vector<std::string>{};
          {
            TracedOp op(kViewOp);
            docs = ViewPage(live.stack.warehouse.get(), page);
          }
          out.view_ms.push_back(MsSince(v0));
          uint64_t want = variant_live ? page.expected_variant : page.expected;
          if (!docs.ok() || PageHash(*docs) != want) ++out.view_failed;
        }
      }
    };
    std::vector<std::thread> threads;
    for (size_t r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
    threads.emplace_back(writer);
    if (read_budget == 0) {
      std::unique_lock<std::mutex> lock(shared.mu);
      shared.cv.wait_for(lock,
                         std::chrono::duration<double>(seconds),
                         [&] { return shared.stop; });
      shared.stop = true;
      shared.cv.notify_all();
    }
    for (std::thread& t : threads) t.join();
    out.wall_ms = MsSince(start);
    return out;
  };

  // Warm-up: a fixed count of reads and their syncs, untimed.
  PhaseOut warm = run_phase(0, warmup_reads);
  size_t warm_failed = warm.sync_failed + warm.view_failed;
  for (const auto& reads : warm.reads) {
    for (const ReadSample& s : reads) warm_failed += s.ok ? 0 : 1;
  }

  // Traced runs measure the same traffic untraced first; the ops/s ratio
  // of the two halves is the tracing overhead.
  PhaseOut untraced;
  if (config.trace) untraced = run_phase(config.seconds / 2, 0);
  traces.SetEnabled(config.trace);
  CounterSnapshot before = CounterSnapshot::Take();
  PhaseOut phase =
      run_phase(config.trace ? config.seconds / 2 : config.seconds, 0);
  CounterSnapshot after = CounterSnapshot::Take();

  // In-process pass (traced runs): every cache key, in its own mode,
  // through XomatiQ::Execute on the idle server's warehouse. Gives the
  // per-layer times and the in-process cost a wire miss is compared
  // against.
  std::vector<double> inproc_ms[2] = {std::vector<double>(queries.size(), 0),
                                      std::vector<double>(queries.size(), 0)};
  std::vector<uint64_t> inproc_rows(3, 0), inproc_touched(3, 0);
  size_t inproc_statements = 0;
  const size_t inproc_ops = config.trace ? ranked.size() : 0;
  size_t inproc_failed = 0;
  CounterSnapshot inproc_before = CounterSnapshot::Take();
  if (config.trace) {
    for (const WireKey& key : ranked) {
      const CatalogQuery& q = queries[key.query];
      int m = static_cast<int>(q.mode);
      uint64_t touched = CounterValue("rel.table.rows_fetched") +
                         CounterValue("rel.table.rows_scanned");
      Clock::time_point t0 = Clock::now();
      Result<XqOutcome> out = XqOutcome{};
      {
        TracedOp op(kXqOpNames[m]);
        out = RunXq(live.stack.xomatiq.get(), q.text, key.xml);
      }
      inproc_ms[key.xml][key.query] = MsSince(t0);
      if (!out.ok() || RowSetHash(RowsOf(out->rows)) != q.expected) {
        ++inproc_failed;
        res.Fail("in-process answer differs: " + q.text);
        continue;
      }
      inproc_rows[m] += out->rows.size();
      inproc_statements += out->statements;
      inproc_touched[m] += CounterValue("rel.table.rows_fetched") +
                           CounterValue("rel.table.rows_scanned") - touched;
    }
  }
  CounterSnapshot inproc_after = CounterSnapshot::Take();
  traces.SetEnabled(false);

  // --- durability check (not timed) -------------------------------------
  // Shut down, reopen the directory and confirm a clean recovery with
  // unchanged catalog answers and the last sync's version of every
  // document the syncs rewrite. Counted as one op.
  clients.clear();
  live.Stop();
  bool durable = true;
  auto not_durable = [&](const std::string& what) {
    durable = false;
    res.Fail(what);
  };
  {
    auto db = rel::Database::Open(live.dir);
    if (!db.ok()) {
      not_durable("reopen: " + db.status().ToString());
    } else {
      if ((*db)->recovered_torn_tail()) {
        not_durable("recovery found a torn tail");
      }
      auto warehouse = hounds::Warehouse::Open(db->get());
      if (!warehouse.ok()) {
        not_durable("reopen warehouse: " + warehouse.status().ToString());
      } else {
        xq::XomatiQ x(warehouse->get());
        for (const CatalogQuery& q : queries) {
          auto out = RunXq(&x, q.text, false);
          if (!out.ok() || RowSetHash(RowsOf(out->rows)) != q.expected) {
            not_durable("answer changed across restart: " + q.text);
          }
        }
        auto docs = ViewPage(warehouse->get(), changed_page);
        uint64_t want = variant_live ? changed_page.expected_variant
                                     : changed_page.expected;
        if (!docs.ok() || PageHash(*docs) != want) {
          not_durable("the last sync's documents were lost across restart");
        }
      }
    }
  }

  // --- end-to-end metrics ------------------------------------------------
  size_t failed = phase.sync_failed + phase.view_failed;
  std::vector<double> all_ms, miss_ms[3], hit_ms;
  size_t reads = 0, hits = 0;
  for (const auto& per_reader : phase.reads) {
    for (const ReadSample& s : per_reader) {
      ++reads;
      if (!s.ok) {
        ++failed;
        continue;
      }
      all_ms.push_back(s.ms);
      if (s.cached) {
        ++hits;
        hit_ms.push_back(s.ms);
      } else {
        miss_ms[static_cast<int>(s.mode)].push_back(s.ms);
      }
    }
  }
  for (double v : phase.view_ms) all_ms.push_back(v);
  const size_t ops = phase.Ops();
  // Every op counts: warm-up, the untraced half of a traced run, the
  // in-process pass and the durability check.
  res.attempted = ops + warm.Ops() + untraced.Ops() + inproc_ops + 1;
  failed += warm_failed + untraced.sync_failed + untraced.view_failed +
            inproc_failed + (durable ? 0 : 1);
  for (const auto& per_reader : untraced.reads) {
    for (const ReadSample& s : per_reader) failed += s.ok ? 0 : 1;
  }
  res.failed = failed;
  if (failed > 0) res.Fail("failed or wrong-answer ops");

  const rel::WalOptions wal;  // Database::Open's default policy
  std::ostringstream extra;
  extra << "\"planner\": \"rule-based\", \"storage\": \"durable\", "
        << "\"wal\": {\"fsync_each_append\": "
        << (wal.fsync_each_append ? "true" : "false") << ", \"checksum\": "
        << (wal.checksum ? "true" : "false") << "}, \"server\": {\"workers\": "
        << kServerWorkers << ", \"max_queue\": " << kServerQueue
        << ", \"cache_entries\": " << kCacheEntries << "}, \"readers\": "
        << kReaders << ", \"reads_per_sync\": " << reads_per_sync
        << ", \"catalog_texts\": " << queries.size()
        << ", \"catalog_keys\": " << ranked.size() << ", \"setups\": " << setups;
  res.Info("env", EnvStampJson(config, n, extra.str()));
  std::ostringstream counts;
  counts << "{\"reads\": " << reads << ", \"hits\": " << hits
         << ", \"keyword_misses\": " << miss_ms[0].size()
         << ", \"subtree_misses\": " << miss_ms[1].size()
         << ", \"join_misses\": " << miss_ms[2].size()
         << ", \"syncs\": " << phase.sync_ms.size()
         << ", \"views\": " << phase.view_ms.size()
         << ", \"wall_s\": " << phase.wall_ms / 1000 << ", \"failed_share\": "
         << double(failed) / std::max<size_t>(1, res.attempted)
         << ", \"oracle_hwm_mb\": " << oracle_hwm_mb << "}";
  res.Info("samples", counts.str());

  if (!config.trace) {
    res.Metric("setup_s", Median(setup_s), "s");
    res.Metric("peak_rss_mb", PeakRssMb(), "MB");
    res.Metric("ops_per_s", phase.OpsPerS(), "1/s");
    res.Metric("read_p95_ms", Percentile(all_ms, 0.95), "ms");
    res.Metric("keyword_ms", Median(miss_ms[0]), "ms");
    res.Metric("subtree_ms", Median(miss_ms[1]), "ms");
    res.Metric("join_ms", Median(miss_ms[2]), "ms");
    res.Metric("view_ms", Median(phase.view_ms), "ms");
    res.Metric("sync_ms", Median(phase.sync_ms), "ms");
    return res;
  }

  // --- per-layer metrics (traced half + in-process pass) ----------------
  LayerInputs in;
  in.xq_ops = inproc_ops;
  in.statements = inproc_statements;
  for (int m = 0; m < 3; ++m) {
    in.result_rows[m] = inproc_rows[m];
    in.rows_touched[m] = inproc_touched[m];
  }
  in.xq_before = inproc_before;
  in.xq_after = inproc_after;
  in.ops = ops;
  in.ops_before = in.sync_before = in.wire_before = before;
  in.ops_after = in.sync_after = in.wire_after = after;
  in.setup_before = setup_before;
  in.setup_after = setup_after;
  in.load_wal_bytes = wal_bytes;
  in.load_input_bytes = files.Bytes();
  in.syncs = in.wire_syncs = phase.sync_ms.size();
  in.docs_written = phase.docs_written;
  in.docs_changed = phase.docs_changed;
  in.max_garbage_versions = phase.max_garbage;
  in.wire_reads = reads;
  in.hit_rtt_ms = hit_ms;
  for (const auto& per_reader : phase.reads) {
    for (const ReadSample& s : per_reader) {
      if (s.ok && !s.cached) {
        in.miss_overhead_ms.push_back(s.ms -
                                      inproc_ms[s.key.xml][s.key.query]);
      }
    }
  }
  in.untraced_ops_per_s = untraced.OpsPerS();
  in.traced_ops_per_s = phase.OpsPerS();
  EmitLayerMetrics(in, &res);
  return res;
}

}  // namespace xomatiq::paperbench
