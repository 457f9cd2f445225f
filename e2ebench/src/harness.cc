#include "e2ebench/src/harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

namespace e2e {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  // VmHWM, which ResetPeakRss() can reset; ru_maxrss where it is missing.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0.0) return kib / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void ResetPeakRss() {
  // Hand the set-up's freed heap back to the kernel, then restart the
  // high-water mark (Linux >= 4.0; elsewhere the peak keeps counting from
  // process start).
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

void RunResult::Expect(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "e2ebench: output check failed: %s\n", what.c_str());
}

void RunResult::Info(const std::string& key, const std::string& value) {
  for (auto& entry : info) {
    if (entry.first == key) {
      entry.second = value;
      return;
    }
  }
  info.emplace_back(key, value);
}

double Window::OpsPerSecond() const {
  if (elapsed_ms <= 0.0) return 0.0;
  return static_cast<double>(attempted - failed) / (elapsed_ms / 1e3);
}

double Window::LatencyQuantile(double q) const {
  if (latency_groups.empty()) return Quantile(latency_ms, q);
  std::vector<double> per_group;
  for (const std::vector<double>& group : latency_groups) {
    if (!group.empty()) per_group.push_back(Quantile(group, q));
  }
  return Mean(per_group);
}

double CompositeUtility(
    const std::vector<std::pair<std::string, double>>& flat) {
  static const char* const kParts[] = {"degree_ks", "degree_hellinger",
                                       "clustering_ccdf_distance",
                                       "theta_f_hellinger"};
  double sum = 0.0;
  int found = 0;
  for (const char* part : kParts) {
    for (const auto& [name, value] : flat) {
      if (name == part) {
        sum += value;
        ++found;
      }
    }
  }
  return found == 4 ? sum / 4.0 : std::nan("");
}

namespace {

void AddEndToEnd(RunResult& result, const Window& w, double setup_s,
                 double peak_rss_mb, double utility_score) {
  result.Add("setup_s", setup_s);
  result.Add("ops_per_s", w.OpsPerSecond());
  result.Add("latency_p50_ms", w.LatencyQuantile(0.50));
  result.Add("latency_p90_ms", w.LatencyQuantile(0.90));
  result.Add("load_p50_ms", Quantile(w.load_ms, 0.5));
  result.Add("ok_frac", w.attempted == 0
                            ? 0.0
                            : static_cast<double>(w.attempted - w.failed) /
                                  static_cast<double>(w.attempted));
  result.Add("peak_rss_mb", peak_rss_mb);
  result.Add("utility_score", utility_score);
  result.Info("latency_samples", std::to_string(w.latency_ms.size()));
  result.Info("load_samples", std::to_string(w.load_ms.size()));
}

template <typename V>
size_t CompareCommon(const std::map<uint64_t, V>& a,
                     const std::map<uint64_t, V>& b, RunResult& result,
                     const char* what) {
  size_t compared = 0;
  for (const auto& [key, value] : a) {
    auto it = b.find(key);
    if (it == b.end()) continue;
    ++compared;
    result.Expect(it->second == value,
                  std::string("traced ") + what + " of op " +
                      std::to_string(key) + " differs from the untraced run");
  }
  return compared;
}

void CompareTracedPass(RunResult& result, const Window& untraced,
                       const Window& traced) {
  const size_t checksums =
      CompareCommon(untraced.checksums, traced.checksums, result, "checksum");
  const size_t utilities =
      CompareCommon(untraced.utility, traced.utility, result, "utility");
  result.Expect(checksums + utilities > 0,
                "traced and untraced passes share no completed op");
  result.Add("trace.compared_outputs",
             static_cast<double>(checksums + utilities));
  result.Add("trace.overhead_latency_p50_ms",
             traced.LatencyQuantile(0.5) - untraced.LatencyQuantile(0.5));
  result.Add("trace.overhead_ops_per_s",
             traced.OpsPerSecond() - untraced.OpsPerSecond());
}

double TimedSetup(Workload& workload) {
  const Clock::time_point start = Clock::now();
  workload.Setup();
  return MsSince(start) / 1e3;
}

}  // namespace

RunResult RunWorkload(Workload& workload, const RunContext& ctx) {
  RunResult result;
  if (!ctx.trace) {
    // Set-up runs several times (each replaces the last state) so setup_s
    // is a median, not one draw: at least 3 times, and more while they
    // total under 2 s, up to 15.
    std::vector<double> setup_s;
    double total_s = 0.0;
    while (setup_s.empty() ||
           (!ctx.tiny && (setup_s.size() < 3 ||
                          (total_s < 2.0 && setup_s.size() < 15)))) {
      setup_s.push_back(TimedSetup(workload));
      total_s += setup_s.back();
    }
    Tracer::SetPhase(Phase::kMeasure);
    ResetPeakRss();
    const Window window = workload.Measure(ctx.seconds);
    const double rss = PeakRssMb();
    Tracer::SetPhase(Phase::kCheck);
    const double utility = workload.Check(window, result);
    result.attempted = window.attempted;
    result.failed = window.failed;
    AddEndToEnd(result, window, Quantile(setup_s, 0.5), rss, utility);
    return result;
  }

  // Untraced pass, then a traced pass over a fresh set-up of the same seed.
  TimedSetup(workload);
  const Window untraced = workload.Measure(ctx.seconds);
  workload.Check(untraced, result);

  Tracer::SetEnabled(true);
  Tracer::SetPhase(Phase::kSetup);
  TimedSetup(workload);
  Tracer::SetPhase(Phase::kMeasure);
  const Window traced = workload.Measure(ctx.seconds);
  Tracer::SetPhase(Phase::kCheck);
  workload.Check(traced, result);
  Tracer::SetEnabled(false);

  const std::vector<SpanRecord> spans = Tracer::Collect();
  workload.AddLayers(traced, SelfTimesMs(spans, Phase::kMeasure),
                     SelfTimesMs(spans, Phase::kSetup), result);
  CompareTracedPass(result, untraced, traced);
  result.Add("trace.spans", static_cast<double>(spans.size()));
  result.attempted = untraced.attempted + traced.attempted;
  result.failed = untraced.failed + traced.failed;

  const std::string path = ctx.trace_out + "/" + ctx.workload + "-seed" +
                           std::to_string(ctx.seed) + ".trace.json";
  if (WriteChromeTrace(spans, path)) result.Info("trace_file", path);
  return result;
}

// ------------------------------------------------------------- tracing

std::atomic<bool> Tracer::enabled_{false};
std::atomic<int> Tracer::phase_{0};

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One thread's records plus its stack of open spans. Buffers are owned by
/// the global list so records outlive the threads that wrote them.
struct ThreadBuffer {
  int thread = 0;
  std::vector<SpanRecord> records;
  std::vector<size_t> open;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& LocalBuffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<int>(g_buffers.size());
  }
  return *t_buffer;
}

}  // namespace

std::vector<SpanRecord> Tracer::Collect() {
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->records.begin(), buffer->records.end());
  }
  return all;
}

Span::Span(const char* name, uint64_t id) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  index_ = buffer.records.size();
  SpanRecord record;
  record.name = name;
  record.id = id;
  record.thread = buffer.thread;
  record.phase =
      static_cast<Phase>(Tracer::phase_.load(std::memory_order_relaxed));
  record.start_ns = NowNs();
  buffer.records.push_back(record);
  buffer.open.push_back(index_);
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  ThreadBuffer& buffer = *t_buffer;
  SpanRecord& record = buffer.records[index_];
  record.end_ns = NowNs();
  buffer.open.pop_back();
  if (!buffer.open.empty()) {
    buffer.records[buffer.open.back()].child_ns +=
        record.end_ns - record.start_ns;
  }
}

std::map<std::string, std::vector<double>> SelfTimesMs(
    const std::vector<SpanRecord>& spans, Phase phase) {
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& span : spans) {
    if (span.phase == phase) out[span.name].push_back(span.SelfMs());
  }
  return out;
}

bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  const std::string dir = path.substr(0, path.rfind('/'));
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (const SpanRecord& span : spans) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  static const char* const kPhaseNames[] = {"setup", "measure", "check"};
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"self_us\":%.3f}}%s\n",
                 s.name, kPhaseNames[static_cast<int>(s.phase)], s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id), s.SelfMs() * 1e3,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void AddLayerP50(RunResult& result,
                 const std::map<std::string, std::vector<double>>& self_ms,
                 const std::string& name, const char* span) {
  auto it = self_ms.find(span);
  result.Add(name, it == self_ms.end() ? 0.0 : Quantile(it->second, 0.5));
}

}  // namespace e2e
