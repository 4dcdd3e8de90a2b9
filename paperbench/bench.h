// Paper-traffic benchmark: shared types. The benchmark drives XomatiQ only
// through its public calls and reads the program's existing metrics; see
// paperbench/README.md for the workloads and metrics.
#ifndef XOMATIQ_PAPERBENCH_BENCH_H_
#define XOMATIQ_PAPERBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/native_xml.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "datagen/corpus.h"
#include "datahounds/warehouse.h"
#include "datahounds/xml_transformer.h"
#include "relational/database.h"
#include "server/protocol.h"
#include "xomatiq/xomatiq.h"

namespace xomatiq::paperbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Exact median / percentile over raw samples (0 when empty).
double Median(std::vector<double> samples);
double Percentile(std::vector<double> samples, double p);

// ---------------------------------------------------------------------
// Run configuration
// ---------------------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny corpus and few ops; every answer check still runs.
  bool smoke = false;
  // Chrome trace_event file the traced run writes its spans to at exit.
  std::string spans_path;
  // Scratch directory for durable databases (inside the checkout).
  std::string work_dir;
};

// Result of one run: the final JSON line plus side information.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // name -> (value, unit), in print order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  // Free-form JSON members for the environment/side line.
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Info(const std::string& key, const std::string& json_value) {
    info.push_back({key, json_value});
  }
  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

RunResult RunPaperMix(const RunConfig& config, bool analyzed);
RunResult RunWireSync(const RunConfig& config);

// ---------------------------------------------------------------------
// Tracing: each traced op runs under its own common::Trace, so the spans
// the program records in its public calls (xq.parse, xq.translate,
// xq.execute, sql.plan, sql.execute, xq.tag, hounds.transform,
// hounds.shred, client.*) form one tree per op under a root span named
// after the op. Traces stay in memory and are written once at exit.
// ---------------------------------------------------------------------

class OpTraces {
 public:
  bool enabled() const { return enabled_; }
  // Toggle only while no other benchmark thread runs (between phases).
  void SetEnabled(bool enabled) { enabled_ = enabled; }

  // Keeps a finished op's trace; its op id is its position.
  void Add(std::unique_ptr<common::Trace> trace, int64_t origin_ns);
  // The span lists of every op so far (call after the threads stopped).
  std::vector<std::vector<common::Trace::Span>> Spans() const;
  // Writes every op as Chrome trace_event JSON; false on I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Op {
    std::unique_ptr<common::Trace> trace;
    int64_t origin_ns = 0;  // steady-clock time of the trace's origin
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Op> ops_;
};

OpTraces& GlobalTraces();

// RAII op: while tracing is on, installs a fresh common::Trace on this
// thread with a root span `name` and hands it to GlobalTraces() at End();
// otherwise does nothing.
class TracedOp {
 public:
  explicit TracedOp(const char* name);
  ~TracedOp() { End(); }
  void End();

  TracedOp(const TracedOp&) = delete;
  TracedOp& operator=(const TracedOp&) = delete;

 private:
  std::unique_ptr<common::Trace> trace_;
  int64_t origin_ns_ = 0;
  std::optional<common::TraceScope> scope_;
  std::optional<common::TraceSpan> root_;
};

// The spans of one op, by name. Self time is a span's duration minus its
// child spans'.
struct OpSpans {
  double ms = 0;          // root span
  double covered_ms = 0;  // the root's child spans
  std::map<std::string, double> total_ms, self_ms;
};
struct SpanSummary {
  std::vector<OpSpans> ops;
  std::map<std::string, std::vector<double>> each_ms;  // every span
  // Per op, the summed durations (or self times) of the spans named
  // `names`; ops with none of them are skipped.
  std::vector<double> PerOp(std::initializer_list<const char*> names,
                            bool self = false) const;
};
// The ops whose root span name starts with `root_prefix`.
SpanSummary Summarize(std::string_view root_prefix);

// ---------------------------------------------------------------------
// Counters: deltas of the program's MetricsRegistry counters.
// ---------------------------------------------------------------------

// Snapshot of every counter and gauge at one instant.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  uint64_t Get(const std::string& name) const;
  int64_t Gauge(const std::string& name) const;
  double HistSumMs(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, int64_t> gauges_;
  std::map<std::string, uint64_t> hist_ns_;  // histogram sums
};

// Live handle for per-op deltas (the same counter the snapshot reads).
inline uint64_t CounterValue(const char* name) {
  return common::MetricsRegistry::Global().GetCounter(name)->Value();
}

// ---------------------------------------------------------------------
// Corpus, warehouse set-up and the answer oracle
// ---------------------------------------------------------------------

inline constexpr char kEnzyme[] = "hlx_enzyme.DEFAULT";
inline constexpr char kEmbl[] = "hlx_embl.inv";
inline constexpr char kSprot[] = "hlx_sprot.all";

// The paper's corpus at scale n (EMBL entries; Swiss-Prot 2n/3, ENZYME
// n/3), with the fixed generator seed of the repository's bench fixture so
// every run measures the same warehouse. The benchmark seed drives the
// traffic, not the data.
datagen::CorpusOptions ScaledOptions(size_t n);

struct FlatFiles {
  std::string enzyme, sprot, embl;
  // The EMBL file with ~5% of entries' sequences revised: a sync to it
  // changes those documents and no catalog answer.
  std::string embl_variant;
  std::vector<std::string> changed_uris;
  size_t Bytes() const { return enzyme.size() + sprot.size() + embl.size(); }
};
FlatFiles MakeFlatFiles(size_t n, uint64_t seed);

// EMBL transformer for syncs. SyncSource, unlike LoadSource, records no
// span around the transformer's Transform; this one adds it
// ("hounds.transform"), so a traced sync splits into transform and apply
// without repeating any work.
class SyncTransformer : public hounds::EmblXmlTransformer {
 public:
  common::Result<std::vector<hounds::TransformedDocument>> Transform(
      std::string_view raw) const override;
};

// One loaded warehouse.
struct Stack {
  std::unique_ptr<rel::Database> db;
  std::unique_ptr<hounds::Warehouse> warehouse;
  std::unique_ptr<xq::XomatiQ> xomatiq;
};

// Opens `dir` durably (in memory when empty) and loads the three sources,
// each load a "setup.load" op when tracing is on.
common::Result<Stack> LoadStack(const FlatFiles& files,
                                const std::string& dir);

// Native DOM store over the same flat files (the answer oracle), plus the
// serialized form of every transformed document for the view check.
struct Oracle {
  baseline::NativeXmlStore store;
  std::map<std::string, std::vector<std::string>> uris;  // per collection
  std::map<std::string, std::string> xml;                // uri -> text
  std::map<std::string, std::string> variant_xml;  // changed EMBL uris
};
common::Result<std::unique_ptr<Oracle>> LoadOracle(const FlatFiles& files);

// Order-insensitive hash of a row set (rows as strings).
using Row = std::vector<std::string>;
uint64_t RowSetHash(const std::vector<Row>& rows);
std::vector<Row> RowsOf(const std::vector<rel::Tuple>& tuples);
// Rows of a tagged XML result (<results><result><col>v</col>...).
common::Result<std::vector<Row>> RowsOfXml(std::string_view xml_text);
uint64_t Fnv1a(std::string_view bytes, uint64_t h = 1469598103934665603ull);
// Answer hash of a wire response (rows, or tagged XML parsed back to rows).
uint64_t ResponseHash(const srv::Response& resp, bool xml);

// ---------------------------------------------------------------------
// Query catalogs (the paper's GUI modes)
// ---------------------------------------------------------------------

enum class Mode { kKeyword = 0, kSubtree = 1, kJoin = 2, kView = 3 };
inline constexpr const char* kModeNames[] = {"keyword", "subtree", "join",
                                             "view"};

// One distinct query text with what the native oracle needs to answer it.
struct CatalogQuery {
  Mode mode = Mode::kSubtree;
  std::string text;
  // Oracle description.
  std::string collection;   // subtree: collection searched
  std::string cond_path;    // subtree: path whose value must contain word
  std::string word;         // keyword term / subtree word / join filter
  std::vector<std::string> returns;        // native return paths ($a side)
  std::vector<std::string> right_returns;  // keyword: $b-side paths first
  bool keyword_b_first = true;             // keyword: column order
  size_t weight = 1;     // share of its mode's ops in a paper_mix cycle
  uint64_t expected = 0;  // validated row-set hash
};

// Computes the native answer of `q` as a row-set hash. Join
// variants differ only in filter and RETURN list, so the native join of a
// return-path list is computed once per `join_cache`.
using JoinCache = std::map<std::vector<std::string>, std::vector<Row>>;
common::Result<uint64_t> NativeAnswer(
    const baseline::NativeXmlStore& store, const CatalogQuery& q,
    JoinCache* join_cache);

std::string KeywordText(const std::string& term, const std::string& b_return,
                        const std::string& a_return, bool b_first);
std::string SubtreeText(const std::string& collection,
                        const std::string& root, const std::string& cond_path,
                        const std::string& word,
                        const std::vector<std::string>& returns);
std::string JoinText(const std::string& filter_word,
                     const std::vector<std::string>& returns);

// A page of whole documents for the Fig 7b view.
struct Page {
  std::string collection;
  std::vector<std::string> uris;
  uint64_t expected = 0;          // hash of the serialized page
  uint64_t expected_variant = 0;  // same after the EMBL variant sync
};

// Reconstructs and serializes every document of `page`, with a
// "datahounds.reconstruct" span around each reconstruction and an
// "xml.write" span around each serialization; returns the serialized
// documents.
common::Result<std::vector<std::string>> ViewPage(hounds::Warehouse* warehouse,
                                                  const Page& page);
// The answer hash of a viewed page (compare with Page::expected).
uint64_t PageHash(const std::vector<std::string>& docs);

// The page of `uris` in `collection`, with its expected hashes.
Page MakePage(const Oracle& oracle, const std::string& collection,
              std::vector<std::string> uris);
// `count` pages of `per_page` consecutive documents, cycling through
// `collections`, at offsets drawn from `rng`.
std::vector<Page> PickPages(const Oracle& oracle, size_t count,
                            size_t per_page,
                            const std::vector<std::string>& collections,
                            common::Rng* rng);

// One XomatiQ query run in process through XomatiQ::Execute. `as_xml`
// renders through the tagger (ResultsAsXml) and serializes inside an
// "xml.write" span, as the XQ_XML wire mode does.
struct XqOutcome {
  std::vector<rel::Tuple> rows;
  std::string xml;
  size_t statements = 0;
};
common::Result<XqOutcome> RunXq(xq::XomatiQ* x, const std::string& text,
                                bool as_xml);

// Root span names of traced ops. In-process XQ ops are "op.xq.<mode>".
inline constexpr const char* kXqOpNames[] = {"op.xq.keyword", "op.xq.subtree",
                                             "op.xq.join"};
inline constexpr char kViewOp[] = "op.view";
inline constexpr char kSyncOp[] = "op.sync";
inline constexpr char kWireOp[] = "op.wire";
inline constexpr char kLoadOp[] = "setup.load";

// Everything a traced run measured besides the spans (GlobalTraces()),
// turned into the per-layer metrics by EmitLayerMetrics. Counter windows
// are (before, after) snapshots.
struct LayerInputs {
  // XomatiQ queries run in process in the traced window.
  size_t xq_ops = 0;
  size_t statements = 0;
  double result_rows[3] = {0, 0, 0};   // per XQ mode
  double rows_touched[3] = {0, 0, 0};  // rows fetched + scanned, per mode
  CounterSnapshot xq_before, xq_after;
  // All ops of the traced window (snapshots per op).
  size_t ops = 0;
  CounterSnapshot ops_before, ops_after;
  // Set-up loads and the syncs.
  CounterSnapshot setup_before, setup_after;
  uint64_t load_wal_bytes = 0;
  size_t load_input_bytes = 0;
  size_t syncs = 0;
  CounterSnapshot sync_before, sync_after;
  size_t docs_written = 0, docs_changed = 0;
  int64_t max_garbage_versions = 0;
  // Wire reads.
  size_t wire_reads = 0;
  size_t wire_syncs = 0;  // syncs that ran beside those reads
  CounterSnapshot wire_before, wire_after;
  std::vector<double> hit_rtt_ms, miss_overhead_ms;
  // Tracing overhead.
  double untraced_ops_per_s = 0, traced_ops_per_s = 0;
};
void EmitLayerMetrics(const LayerInputs& in, RunResult* res);

// Moves the calling thread round the CPUs it may run on. A single-threaded
// phase otherwise stays on one vCPU for a whole run, and on a VM the
// vCPUs' speeds drift independently: measured paper_mix runs were bimodal
// (sub-tree median 4.3 or 7.3 ms) until they visited each vCPU in turn.
// Threads started while the caller is pinned inherit the pin, so Release()
// before starting any.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { Release(); }
  // Pins the calling thread to the next CPU.
  void Next();
  // Lets the calling thread run on all its CPUs again.
  void Release();

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Process-level facts for the environment stamp.
double PeakRssMb();
std::string EnvStampJson(const RunConfig& config, size_t n,
                         const std::string& extra_json);

}  // namespace xomatiq::paperbench

#endif  // XOMATIQ_PAPERBENCH_BENCH_H_
