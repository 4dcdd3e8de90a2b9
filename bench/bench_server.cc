// Closed-loop service benchmark: N client threads over TCP against one
// QueryServer, measuring throughput and request-latency percentiles for a
// cache-friendly XQuery workload, a cache-defeating SQL workload, and a
// 50/50 mix — plus the overload rejection rate of a deliberately tiny
// admission queue. Writes BENCH_server.json.
//
//   bench_server [corpus_n] [clients] [seconds_per_phase]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "client/client.h"
#include "common/metrics.h"
#include "common/query_log.h"
#include "server/server.h"

namespace {

using namespace xomatiq;
using benchutil::JsonReport;
using benchutil::Unwrap;
using Clock = std::chrono::steady_clock;

struct PhaseResult {
  size_t requests = 0;
  size_t errors = 0;
  size_t rejected = 0;  // kOverloaded responses
  size_t cached = 0;
  double seconds = 0;
  std::vector<double> latencies_us;

  double Percentile(double p) const {
    return common::PercentileOfSamples(latencies_us, p);
  }
};

// Each client runs `make_query(i)` in a closed loop (next request only
// after the previous response) for `seconds`.
template <typename MakeQuery>
PhaseResult RunPhase(uint16_t port, size_t clients, double seconds,
                     MakeQuery make_query) {
  std::atomic<bool> stop{false};
  std::vector<PhaseResult> per_client(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = cli::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        per_client[c].errors = 1;
        return;
      }
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto [mode, text] = make_query(c * 1000000 + i++);
        auto t0 = Clock::now();
        auto response = client->Execute(mode, text);
        double us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                              t0)
                        .count();
        PhaseResult& r = per_client[c];
        ++r.requests;
        r.latencies_us.push_back(us);
        if (!response.ok()) {
          ++r.errors;
        } else if (response->code == common::StatusCode::kOverloaded) {
          ++r.rejected;
        } else if (!response->ok()) {
          ++r.errors;
        } else if (response->cached()) {
          ++r.cached;
        }
      }
    });
  }
  auto start = Clock::now();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  PhaseResult total;
  total.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (PhaseResult& r : per_client) {
    total.requests += r.requests;
    total.errors += r.errors;
    total.rejected += r.rejected;
    total.cached += r.cached;
    total.latencies_us.insert(total.latencies_us.end(),
                              r.latencies_us.begin(), r.latencies_us.end());
  }
  return total;
}

void Report(JsonReport* report, const char* name, const PhaseResult& r,
            size_t clients) {
  double qps = r.seconds > 0 ? static_cast<double>(r.requests) / r.seconds : 0;
  std::printf(
      "%-16s %8zu req %9.0f req/s  p50 %7.0fus  p95 %7.0fus  p99 %7.0fus  "
      "cached %5.1f%%  rejected %5.1f%%  errors %zu\n",
      name, r.requests, qps, r.Percentile(0.50), r.Percentile(0.95),
      r.Percentile(0.99),
      r.requests ? 100.0 * static_cast<double>(r.cached) /
                       static_cast<double>(r.requests)
                 : 0,
      r.requests ? 100.0 * static_cast<double>(r.rejected) /
                       static_cast<double>(r.requests)
                 : 0,
      r.errors);
  report->Add(name,
              {{"clients", static_cast<double>(clients)},
               {"requests", static_cast<double>(r.requests)},
               {"qps", qps},
               {"p50_us", r.Percentile(0.50)},
               {"p95_us", r.Percentile(0.95)},
               {"p99_us", r.Percentile(0.99)},
               {"cached_fraction",
                r.requests ? static_cast<double>(r.cached) /
                                 static_cast<double>(r.requests)
                           : 0},
               {"rejected_fraction",
                r.requests ? static_cast<double>(r.rejected) /
                                 static_cast<double>(r.requests)
                           : 0},
               {"errors", static_cast<double>(r.errors)}});
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = argc > 1 ? static_cast<size_t>(std::atol(argv[1])) : 1000;
  size_t clients = argc > 2 ? static_cast<size_t>(std::atol(argv[2])) : 8;
  double seconds = argc > 3 ? std::atof(argv[3]) : 2.0;

  auto* fx = benchutil::GetWarehouse(n);
  JsonReport report("BENCH_server.json");

  const std::string xq_query = benchutil::Fig9Query();
  auto uncached_sql = [](size_t i) {
    // Distinct text every request defeats the cache while keeping the
    // work constant (node_ids are nonnegative, so the predicate is
    // always true and the query still scans).
    return std::pair(common::QueryMode::kSql,
                     "SELECT COUNT(*) FROM xml_node WHERE node_id <> -" +
                         std::to_string(i + 1));
  };

  {
    srv::ServerOptions options;
    options.workers = 4;
    options.max_queue = 256;
    options.service.cache = std::make_shared<srv::ResultCache>(512);
    srv::QueryServer server(fx->warehouse.get(), options);
    benchutil::Check(server.Start(), "start server");
    std::printf("bench_server: corpus n=%zu, %zu clients, %.1fs/phase, "
                "port %u\n\n",
                n, clients, seconds, server.port());

    Report(&report, "cached_xq",
           RunPhase(server.port(), clients, seconds,
                    [&](size_t) {
                      return std::pair(common::QueryMode::kXq, xq_query);
                    }),
           clients);
    Report(&report, "uncached_sql",
           RunPhase(server.port(), clients, seconds, uncached_sql), clients);
    Report(&report, "mixed_50_50",
           RunPhase(server.port(), clients, seconds,
                    [&](size_t i) {
                      if (i % 2 == 0) {
                        return std::pair(common::QueryMode::kXq, xq_query);
                      }
                      return uncached_sql(i);
                    }),
           clients);
    server.Shutdown();
  }

  {
    // Ops-plane overhead: the same cached-read workload with the
    // observability surface fully on (HTTP admin endpoint bound, query
    // log enabled — the defaults) vs fully off. The delta is the price of
    // always-on observability on the hottest path the server has.
    double qps_on = 0, qps_off = 0;
    {
      srv::ServerOptions options;
      options.workers = 4;
      options.max_queue = 256;
      options.service.cache = std::make_shared<srv::ResultCache>(512);
      options.admin_port = 0;  // ephemeral
      common::QueryLog::Global().set_enabled(true);
      srv::QueryServer server(fx->warehouse.get(), options);
      benchutil::Check(server.Start(), "start ops-on server");
      PhaseResult r = RunPhase(server.port(), clients, seconds, [&](size_t) {
        return std::pair(common::QueryMode::kXq, xq_query);
      });
      qps_on = r.seconds > 0 ? static_cast<double>(r.requests) / r.seconds : 0;
      Report(&report, "cached_xq_ops_on", r, clients);
      server.Shutdown();
    }
    {
      srv::ServerOptions options;
      options.workers = 4;
      options.max_queue = 256;
      options.service.cache = std::make_shared<srv::ResultCache>(512);
      common::QueryLog::Global().set_enabled(false);
      srv::QueryServer server(fx->warehouse.get(), options);
      benchutil::Check(server.Start(), "start ops-off server");
      PhaseResult r = RunPhase(server.port(), clients, seconds, [&](size_t) {
        return std::pair(common::QueryMode::kXq, xq_query);
      });
      qps_off = r.seconds > 0 ? static_cast<double>(r.requests) / r.seconds : 0;
      Report(&report, "cached_xq_ops_off", r, clients);
      server.Shutdown();
      common::QueryLog::Global().set_enabled(true);
    }
    double overhead_pct =
        qps_off > 0 ? 100.0 * (qps_off - qps_on) / qps_off : 0;
    std::printf("%-16s %.2f%% (on %.0f req/s vs off %.0f req/s)\n",
                "ops_overhead", overhead_pct, qps_on, qps_off);
    report.Add("ops_plane", {{"qps_ops_on", qps_on},
                             {"qps_ops_off", qps_off},
                             {"ops_plane_overhead_pct", overhead_pct}});
  }

  {
    // Overload: one worker, a two-deep queue, and twice the clients. The
    // interesting number is the typed-rejection rate — clients always get
    // an answer instead of an unbounded queueing delay.
    srv::ServerOptions options;
    options.workers = 1;
    options.max_queue = 2;
    srv::QueryServer server(fx->warehouse.get(), options);
    benchutil::Check(server.Start(), "start overload server");
    Report(&report, "overload_tiny_queue",
           RunPhase(server.port(), clients * 2, seconds, uncached_sql),
           clients * 2);
    server.Shutdown();
  }

  if (!report.Write()) return 1;
  std::printf("\nwrote BENCH_server.json\n");
  return 0;
}
