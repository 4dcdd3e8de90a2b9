// Per-op traces, self-time summaries and counter snapshots.

#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "bench.h"

namespace xomatiq::paperbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

}  // namespace

OpTraces& GlobalTraces() {
  static OpTraces* traces = new OpTraces();
  return *traces;
}

void OpTraces::Add(std::unique_ptr<common::Trace> trace, int64_t origin_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back({std::move(trace), origin_ns});
}

std::vector<std::vector<common::Trace::Span>> OpTraces::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<common::Trace::Span>> out;
  out.reserve(ops_.size());
  for (const Op& op : ops_) out.push_back(op.trace->spans());
  return out;
}

bool OpTraces::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t base = 0;
  for (const Op& op : ops_) {
    if (base == 0 || op.origin_ns < base) base = op.origin_ns;
  }
  std::fprintf(f, "{\"traceEvents\": [");
  const char* sep = "\n";
  for (size_t i = 0; i < ops_.size(); ++i) {
    for (const common::Trace::Span& s : ops_[i].trace->spans()) {
      double ts_us = (ops_[i].origin_ns - base + int64_t(s.start_ns)) / 1e3;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"op\": %zu, \"id\": %u, \"parent\": %u}}",
                   sep, s.name.c_str(),
                   static_cast<unsigned long long>(s.thread_id % 1000000),
                   ts_us, s.duration_ns / 1e3, i + 1, s.id, s.parent);
      sep = ",\n";
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

TracedOp::TracedOp(const char* name) {
  if (!GlobalTraces().enabled()) return;
  origin_ns_ = NowNs();
  trace_ = std::make_unique<common::Trace>();
  scope_.emplace(trace_.get());
  root_.emplace(name);
}

void TracedOp::End() {
  if (trace_ == nullptr) return;
  root_.reset();
  scope_.reset();
  GlobalTraces().Add(std::move(trace_), origin_ns_);
}

std::vector<double> SpanSummary::PerOp(std::initializer_list<const char*> names,
                                       bool self) const {
  std::vector<double> out;
  for (const OpSpans& op : ops) {
    const std::map<std::string, double>& by_name =
        self ? op.self_ms : op.total_ms;
    double sum = 0;
    bool any = false;
    for (const char* name : names) {
      auto it = by_name.find(name);
      if (it == by_name.end()) continue;
      sum += it->second;
      any = true;
    }
    if (any) out.push_back(sum);
  }
  return out;
}

SpanSummary Summarize(std::string_view root_prefix) {
  SpanSummary summary;
  for (const std::vector<common::Trace::Span>& spans :
       GlobalTraces().Spans()) {
    // A TracedOp's root is its trace's first span; every other span lies
    // under it.
    if (spans.empty() || spans[0].parent != 0 ||
        spans[0].name.compare(0, root_prefix.size(), root_prefix) != 0) {
      continue;
    }
    std::unordered_map<uint32_t, double> child_ms;
    for (const common::Trace::Span& s : spans) {
      if (s.parent != 0) child_ms[s.parent] += s.duration_ns / 1e6;
    }
    OpSpans op;
    op.ms = spans[0].duration_ns / 1e6;
    op.covered_ms = child_ms[spans[0].id];
    for (size_t i = 1; i < spans.size(); ++i) {
      const common::Trace::Span& s = spans[i];
      double ms = s.duration_ns / 1e6;
      op.total_ms[s.name] += ms;
      op.self_ms[s.name] += ms - child_ms[s.id];
      summary.each_ms[s.name].push_back(ms);
    }
    summary.ops.push_back(std::move(op));
  }
  return summary;
}

CounterSnapshot CounterSnapshot::Take() {
  common::MetricsSnapshot snap = common::MetricsRegistry::Global().Snapshot();
  CounterSnapshot out;
  for (const auto& [name, value] : snap.counters) out.counters_[name] = value;
  for (const auto& [name, value] : snap.gauges) out.gauges_[name] = value;
  for (const auto& h : snap.histograms) {
    out.hist_ns_[h.name] = h.sum_ns;
  }
  return out;
}

uint64_t CounterSnapshot::Get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t CounterSnapshot::Gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

double CounterSnapshot::HistSumMs(const std::string& name) const {
  auto it = hist_ns_.find(name);
  return it == hist_ns_.end() ? 0 : it->second / 1e6;
}

void EmitLayerMetrics(const LayerInputs& in, RunResult* res) {
  SpanSummary all = Summarize("op.");
  SpanSummary xq = Summarize("op.xq.");
  SpanSummary views = Summarize(kViewOp);
  SpanSummary syncs = Summarize(kSyncOp);
  SpanSummary loads = Summarize(kLoadOp);
  auto each = [](const SpanSummary& summary, const char* name) {
    auto it = summary.each_ms.find(name);
    return it == summary.each_ms.end() ? std::vector<double>() : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto delta = [](const CounterSnapshot& a, const CounterSnapshot& b,
                  const char* name) { return double(b.Get(name) - a.Get(name)); };
  auto per_query = [&](const char* name) {
    return ratio(delta(in.xq_before, in.xq_after, name), in.xq_ops);
  };
  auto per_sync = [&](const char* name) {
    return ratio(delta(in.sync_before, in.sync_after, name), in.syncs);
  };
  auto wire = [&](const char* name) {
    return delta(in.wire_before, in.wire_after, name);
  };

  // XomatiQ::Translate is the parse and translate stages; the tag cost of
  // an XML op is the tagger plus serializing its document.
  res->Metric("xomatiq.translate_ms",
              Median(xq.PerOp({"xq.parse", "xq.translate"})), "ms");
  res->Metric("xomatiq.tag_ms", Median(xq.PerOp({"xq.tag", "xml.write"})),
              "ms");
  res->Metric("xomatiq.statements_per_query", ratio(in.statements, in.xq_ops),
              "count");
  res->Metric("sql.plan_ms", Median(each(xq, "sql.plan")), "ms");
  for (int m = 0; m < 3; ++m) {
    res->Metric(std::string("sql.execute_ms.") + kModeNames[m],
                Median(Summarize(kXqOpNames[m]).PerOp({"sql.execute"}, true)),
                "ms");
  }
  for (int m = 0; m < 3; ++m) {
    res->Metric(std::string("sql.rows_fetched_per_result_row.") + kModeNames[m],
                ratio(in.rows_touched[m], in.result_rows[m]), "ratio");
  }
  res->Metric("sql.cost_based_plans", per_query("sql.opt.cost_based_plans"),
              "1/query");
  res->Metric("sql.rule_based_plans", per_query("sql.opt.rule_based_plans"),
              "1/query");
  res->Metric("exec.pool_tasks_per_query", per_query("exec.pool.tasks"),
              "1/query");
  res->Metric("exec.inline_slots_per_query", per_query("exec.pool.inline_slots"),
              "1/query");
  res->Metric("relational.wal_bytes_per_input_byte",
              ratio(in.load_wal_bytes, in.load_input_bytes), "ratio");
  res->Metric("relational.wal_appends_per_sync", per_sync("rel.wal.appends"),
              "1/sync");
  res->Metric("relational.btree_leaf_splits_per_sync",
              per_sync("rel.btree.leaf_splits"), "1/sync");
  res->Metric("relational.reclaim_passes_per_sync",
              per_sync("rel.mvcc.reclaim_passes"), "1/sync");
  res->Metric("relational.garbage_versions", in.max_garbage_versions, "count");
  res->Metric("relational.snapshots_per_op",
              ratio(delta(in.ops_before, in.ops_after, "rel.mvcc.snapshots"),
                    in.ops),
              "1/op");
  // A load is transform then shred; shred is the rest of LoadSource.
  std::vector<double> shred;
  for (const OpSpans& op : loads.ops) {
    auto it = op.total_ms.find("hounds.transform");
    shred.push_back(op.ms - (it == op.total_ms.end() ? 0 : it->second));
  }
  res->Metric("datahounds.transform_ms",
              Median(each(loads, "hounds.transform")), "ms");
  res->Metric("datahounds.sync_transform_ms",
              Median(syncs.PerOp({"hounds.transform"})), "ms");
  res->Metric("datahounds.shred_ms", Median(shred), "ms");
  res->Metric("datahounds.docs_written_per_changed_doc",
              ratio(in.docs_written, in.docs_changed), "ratio");
  res->Metric("datahounds.reconstruct_ms",
              Median(each(views, "datahounds.reconstruct")), "ms");
  res->Metric("xml.write_ms", Median(views.PerOp({"xml.write"})), "ms");
  double hits = wire("server.cache.hits"), misses = wire("server.cache.misses");
  res->Metric("server.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  res->Metric("server.cache_evictions_per_1k_reads",
              ratio(wire("server.cache.evictions") * 1000, in.wire_reads),
              "1/1k");
  res->Metric("server.cache_invalidations_per_sync",
              ratio(wire("server.cache.invalidations"), in.wire_syncs),
              "1/sync");
  res->Metric("server.rejected_overload", wire("server.rejected_overload"),
              "count");
  res->Metric("client.hit_rtt_ms", Median(in.hit_rtt_ms), "ms");
  res->Metric("server.miss_overhead_ms", Median(in.miss_overhead_ms), "ms");
  double op_ms = 0, covered_ms = 0;
  for (const OpSpans& op : all.ops) {
    op_ms += op.ms;
    covered_ms += op.covered_ms;
  }
  res->Metric("trace.self_time_share", ratio(covered_ms, op_ms), "ratio");
  res->Metric("trace.overhead_pct",
              in.traced_ops_per_s > 0
                  ? (in.untraced_ops_per_s / in.traced_ops_per_s - 1) * 100
                  : 0,
              "%");

  // Cross-check: the program's stage histograms over the same windows
  // next to the spans, recorded by the same TraceSpan objects.
  auto hist = [](const CounterSnapshot& a, const CounterSnapshot& b,
                 const char* name) {
    return b.HistSumMs(name) - a.HistSumMs(name);
  };
  std::ostringstream check;
  check << "{\"xq.stage.parse+translate_ms\": "
        << hist(in.xq_before, in.xq_after, "xq.stage.parse") +
               hist(in.xq_before, in.xq_after, "xq.stage.translate")
        << ", \"span.xq.parse+translate_ms\": "
        << Sum(xq.PerOp({"xq.parse", "xq.translate"}))
        << ", \"xq.stage.tag_ms\": "
        << hist(in.xq_before, in.xq_after, "xq.stage.tag")
        << ", \"span.xq.tag_ms\": " << Sum(xq.PerOp({"xq.tag"}))
        << ", \"sql.stage.plan_ms\": "
        << hist(in.xq_before, in.xq_after, "sql.stage.plan")
        << ", \"span.sql.plan_ms\": " << Sum(each(xq, "sql.plan"))
        << ", \"sql.stage.execute_ms\": "
        << hist(in.xq_before, in.xq_after, "sql.stage.execute")
        << ", \"span.sql.execute_ms\": " << Sum(each(xq, "sql.execute"))
        << ", \"hounds.stage.transform_ms(load)\": "
        << hist(in.setup_before, in.setup_after, "hounds.stage.transform")
        << ", \"span.hounds.transform_ms(load)\": "
        << Sum(each(loads, "hounds.transform"))
        << ", \"hounds.stage.shred_ms(load)\": "
        << hist(in.setup_before, in.setup_after, "hounds.stage.shred")
        << ", \"span.hounds.shred_ms(load)\": "
        << Sum(each(loads, "hounds.shred")) << "}";
  res->Info("stage_crosscheck", check.str());
}

}  // namespace xomatiq::paperbench
