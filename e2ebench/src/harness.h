// Shared plumbing of the end-to-end benchmark runner: the run context,
// the result every workload fills in, order statistics, and the span
// tracer the traced run records around calls into the library.
//
// Tracing lives entirely in the benchmark: a Span wraps one call into a
// module's public function (graph, pipeline, models, eval, server,
// registry, mechanisms). Spans nest per thread; when a span closes, its
// duration is charged to its parent as child time, so every record carries
// its own self time. Records stay in memory (one buffer per thread) until
// the run ends and are then reduced to per-layer metrics and written out
// as a Chrome trace-event file. With tracing off a Span costs one relaxed
// atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t) { return MsBetween(t, Clock::now()); }

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set of this process since the last ResetPeakRss() (or
/// since start), in MiB.
double PeakRssMb();
void ResetPeakRss();

/// \brief What the command line asked for.
struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced inputs and repetitions for the self-test.
  bool tiny = false;
  /// serve_batch: add one load over its tenant's epsilon budget.
  bool probe_over_budget = false;
  /// Scratch directory for generated inputs (emptied by run.py).
  std::string workdir;
  /// Where the traced run writes its Chrome trace file.
  std::string trace_out;
  /// Available cores (sampler/analytics threads of the offline workloads).
  int cores = 1;
};

/// \brief Everything one run reports. Output checks that fail flip
/// `correct` and are listed on standard error.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Metric name -> value; units come from the table in main.cc.
  std::map<std::string, double> metrics;
  /// Context printed on the line before the result (input size, loop, ...).
  std::vector<std::pair<std::string, std::string>> info;

  void Expect(bool ok, const std::string& what);
  void Add(const std::string& name, double value) { metrics[name] = value; }
  /// Sets (or replaces) one info entry.
  void Info(const std::string& key, const std::string& value);
};

/// \brief One measured window: per-op latencies plus the outputs the
/// traced and untraced passes must agree on, keyed by op index.
struct Window {
  double elapsed_ms = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;
  /// Optional split of latency_ms into groups (serve_batch: the inputs
  /// served in turn). A latency percentile is then the mean over the
  /// groups of the per-group percentile, so each input counts equally.
  std::vector<std::vector<double>> latency_groups;
  std::vector<double> load_ms;
  std::map<uint64_t, uint64_t> checksums;
  std::map<uint64_t, double> utility;

  double OpsPerSecond() const;
  double LatencyQuantile(double q) const;
};

/// \brief One workload: repeatable set-up, one measured window, output
/// checks and (for the traced pass) its per-layer metrics.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates every input from the seed and brings the system up,
  /// replacing the state of any earlier call. Timed as setup_s.
  virtual void Setup() = 0;
  /// Drives the system for `seconds` on the state of the last Setup().
  virtual Window Measure(double seconds) = 0;
  /// Verifies the window's outputs (failures go to `result.Expect`) and
  /// returns the utility score of the run's fixed output sample.
  virtual double Check(const Window& window, RunResult& result) = 0;
  /// Per-layer metrics of a traced window. `self_ms` holds the span self
  /// times of its measured phase, `setup_ms` those of its set-up.
  virtual void AddLayers(
      const Window& window,
      const std::map<std::string, std::vector<double>>& self_ms,
      const std::map<std::string, std::vector<double>>& setup_ms,
      RunResult& result) = 0;
};

/// Runs `workload` as the context asks: untraced (every end-to-end metric)
/// or an untraced and a traced pass over fresh set-ups (every per-layer
/// metric, the tracing overhead, and a check that both passes produced
/// identical outputs).
RunResult RunWorkload(Workload& workload, const RunContext& ctx);

/// The sweep's composite utility: mean of degree_ks, degree_hellinger,
/// clustering_ccdf_distance and theta_f_hellinger (lower is better).
double CompositeUtility(
    const std::vector<std::pair<std::string, double>>& flat);

// ------------------------------------------------------------- tracing

enum class Phase : int { kSetup = 0, kMeasure = 1, kCheck = 2 };

struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  int thread = 0;
  Phase phase = Phase::kSetup;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;

  double SelfMs() const {
    return static_cast<double>(end_ns - start_ns - child_ns) / 1e6;
  }
};

class Tracer {
 public:
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetPhase(Phase phase) {
    phase_.store(static_cast<int>(phase), std::memory_order_relaxed);
  }

  /// Every record of every thread so far (call when no span is open).
  static std::vector<SpanRecord> Collect();

 private:
  friend class Span;
  static std::atomic<bool> enabled_;
  static std::atomic<int> phase_;
};

/// RAII span around one call into the library. `name` must be a string
/// literal ("<module>.<function>").
class Span {
 public:
  explicit Span(const char* name, uint64_t id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  size_t index_ = 0;
};

/// Per-name self times (ms) of the spans recorded in `phase`.
std::map<std::string, std::vector<double>> SelfTimesMs(
    const std::vector<SpanRecord>& spans, Phase phase);

/// Writes `spans` as Chrome trace-event JSON (chrome://tracing).
bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path);

/// Runs `fn` inside a span and returns its result.
template <typename Fn>
auto Traced(const char* name, uint64_t id, Fn&& fn) {
  const Span span(name, id);
  return fn();
}

/// Set-up and check steps cannot proceed past a failed library call: the
/// run ends with exit code 1 and no result line.
[[noreturn]] inline void Fatal(const std::string& what,
                               const agmdp::util::Status& status) {
  std::fprintf(stderr, "e2ebench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}
inline void MustOk(const agmdp::util::Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what, status);
}
template <typename T>
T Must(agmdp::util::Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what, result.status());
  return std::move(result).value();
}

/// Adds `<name>` = p50 of the self times recorded under `span` in `phase`
/// (0 when the layer did no work there).
void AddLayerP50(RunResult& result,
                 const std::map<std::string, std::vector<double>>& self_ms,
                 const std::string& name, const char* span);

}  // namespace e2e
