// paper_bench: the paper-traffic benchmark program.
//
//   paper_bench --workload paper_mix|paper_mix_analyzed|wire_sync
//               --seed N --seconds S --trace 0|1
//               [--smoke] [--spans FILE] [--work-dir DIR]
//
// Prints side information (environment stamp, sample counts, errors) as
// JSON lines, then, as the last line, one JSON object with `correct`,
// `attempted`, `failed` and `metrics`: the end-to-end metrics untraced
// (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when any
// answer is wrong or an op failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "exec/worker_pool.h"

namespace {

using xomatiq::paperbench::RunConfig;
using xomatiq::paperbench::RunResult;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: paper_bench --workload paper_mix|paper_mix_analyzed|"
               "wire_sync --seed N --seconds S --trace 0|1 [--smoke] "
               "[--spans FILE] [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      config.workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(v);
    } else if (arg == "--trace") {
      config.trace = std::atoi(v) != 0;
    } else if (arg == "--spans") {
      config.spans_path = v;
    } else if (arg == "--work-dir") {
      config.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (!(config.seconds > 0) || !std::isfinite(config.seconds)) return Usage();

  // The executor's pool starts on first use, and its workers inherit the
  // CPU set of the thread that starts them: start it before any phase
  // pins this thread (see CpuRotation).
  xomatiq::exec::WorkerPool::Global();

  RunResult result;
  if (config.workload == "paper_mix") {
    result = xomatiq::paperbench::RunPaperMix(config, /*analyzed=*/false);
  } else if (config.workload == "paper_mix_analyzed") {
    result = xomatiq::paperbench::RunPaperMix(config, /*analyzed=*/true);
  } else if (config.workload == "wire_sync") {
    result = xomatiq::paperbench::RunWireSync(config);
  } else {
    return Usage();
  }

  if (config.trace && !config.spans_path.empty() &&
      !xomatiq::paperbench::GlobalTraces().WriteChromeJson(config.spans_path)) {
    result.Fail("cannot write spans to " + config.spans_path);
  }
  // A run that aborts before its ops, or fails a check outside them,
  // counts that as one more attempted op, and a failed one.
  if (!result.correct && result.failed == 0) {
    ++result.attempted;
    result.failed = 1;
  }

  for (const auto& [key, json] : result.info) {
    std::printf("{\"%s\": %s}\n", key.c_str(), json.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("{\"error\": \"%s\"}\n", JsonEscape(error).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, metric] = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), metric.first,
                metric.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
