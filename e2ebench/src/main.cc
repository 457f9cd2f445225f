// e2ebench — the end-to-end benchmark runner (built and run by
// e2ebench/run.py; see e2ebench/WORKLOADS.md for the workloads).
//
//   e2ebench --workload=release|serve_batch --seed=N --seconds=S
//            --trace=0|1 --workdir=DIR --trace-out=DIR [--tiny]
//            [--probe-over-budget]
//
// Prints one info line (cores, SIMD ISA, input sizes, loop shape), then as
// the last line {"correct":..,"attempted":..,"failed":..,"metrics":{..}}:
// every end-to-end metric under --trace=0, every per-layer metric under
// --trace=1. Exits 1 when an output check fails, 2 on a usage error.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "e2ebench/src/harness.h"
#include "e2ebench/src/workloads.h"
#include "src/util/flags.h"
#include "src/util/parallel.h"
#include "src/util/simd.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric tables of BENCHMARK.json; every workload reports all of them
// (a layer a workload does not touch reads 0).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},   {"latency_p90_ms", "ms"},
    {"load_p50_ms", "ms"},      {"ok_frac", "ratio"},
    {"peak_rss_mb", "MiB"},     {"utility_score", "score"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.open_ms", "ms"},
    {"graph.materialize_ms", "ms"},
    {"pipeline.fit_ms", "ms"},
    {"pipeline.engine_create_ms", "ms"},
    {"pipeline.sample_ms", "ms"},
    {"models.generate_ms", "ms"},
    {"eval.evaluate_ms", "ms"},
    {"eval.profile_ms", "ms"},
    {"mechanisms.fit_ms", "ms"},
    {"mechanisms.sample_ms", "ms"},
    {"server.request_ms", "ms"},
    {"server.load_ms", "ms"},
    {"server.engine_ms", "ms"},
    {"server.checksum_ms", "ms"},
    {"server.engine_share", "ratio"},
    {"server.batched_frac", "ratio"},
    {"server.batches", "count"},
    {"server.shed", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"registry.appends", "count"},
    {"registry.fsyncs", "count"},
    {"registry.replay_ms", "ms"},
    {"bench.op_self_ms", "ms"},
    {"trace.overhead_latency_p50_ms", "ms"},
    {"trace.overhead_ops_per_s", "1/s"},
    {"trace.compared_outputs", "count"},
    {"trace.spans", "count"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Formats `table` from the result's values; a metric the run did not
/// measure (or measured as NaN/inf) marks the result incorrect.
template <size_t N>
std::string FormatMetrics(e2e::RunResult& result,
                          const MetricSpec (&table)[N], bool missing_is_zero) {
  std::string out;
  char buf[256];
  for (size_t i = 0; i < N; ++i) {
    auto it = result.metrics.find(table[i].name);
    double value = 0.0;
    if (it != result.metrics.end()) {
      value = it->second;
    } else {
      result.Expect(missing_is_zero,
                    std::string("metric ") + table[i].name + " was measured");
    }
    if (!std::isfinite(value)) {
      result.Expect(false, std::string("metric ") + table[i].name +
                               " is finite");
      value = 0.0;
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i ? "," : "", table[i].name, value, table[i].unit);
    out += buf;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agmdp;
  const util::Flags flags = util::Flags::Parse(argc, argv);
  e2e::RunContext ctx;
  ctx.workload = flags.GetString("workload", "");
  auto seed = flags.GetCheckedInt("seed", -1);
  auto seconds = flags.GetCheckedDouble("seconds", 0.0);
  auto trace = flags.GetCheckedInt("trace", 0);
  if (!seed.ok() || seed.value() < 0 || !seconds.ok() ||
      seconds.value() <= 0.0 || !trace.ok() || !flags.Has("workdir")) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --workdir=DIR --trace-out=DIR\n");
    return 2;
  }
  ctx.seed = static_cast<uint64_t>(seed.value());
  ctx.seconds = seconds.value();
  ctx.trace = trace.value() != 0;
  ctx.tiny = flags.GetBool("tiny", false);
  ctx.probe_over_budget = flags.GetBool("probe-over-budget", false);
  ctx.workdir = flags.GetString("workdir", "");
  ctx.trace_out = flags.GetString("trace-out", ctx.workdir);
  ctx.cores = util::AvailableConcurrency();

  std::unique_ptr<e2e::Workload> workload = e2e::MakeWorkload(ctx);
  if (workload == nullptr) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 ctx.workload.c_str());
    return 2;
  }
  e2e::RunResult result = e2e::RunWorkload(*workload, ctx);

  std::printf("{\"info\":{\"workload\":%s,\"seed\":%" PRIu64
              ",\"trace\":%d,\"cores\":%d,\"simd_isa\":%s",
              JsonString(ctx.workload).c_str(), ctx.seed, ctx.trace ? 1 : 0,
              ctx.cores,
              JsonString(util::SimdIsaName(util::ActiveSimdIsa())).c_str());
  for (const auto& [key, value] : result.info) {
    std::printf(",%s:%s", JsonString(key).c_str(), JsonString(value).c_str());
  }
  std::printf("}}\n");

  const std::string metrics = ctx.trace
                                  ? FormatMetrics(result, kPerLayer, true)
                                  : FormatMetrics(result, kEndToEnd, false);
  result.Expect(result.attempted > 0, "at least one op was attempted");
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{%s}}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
