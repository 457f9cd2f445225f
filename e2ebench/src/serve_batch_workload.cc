// `serve_batch`: the daemon's hot path. It runs the `agmdp serve` daemon
// in-process (server::Server::Start with default ServerOptions, the values
// the serve subcommand's flags default to) and drives it over TCP on
// localhost, overriding only what a user must set: the port, the tenant
// budget and the registry path. min(4, cores) closed-loop connections pull
// FCL samples from one hot engine under one seed family at a time, so
// queued requests coalesce into SampleMany. Set-up loads every input's
// release, each an epsilon debit journaled and fsynced before the load is
// acknowledged; the window is request path + engine only.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/src/workloads.h"
#include "src/datasets/datasets.h"
#include "src/eval/utility_report.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/registry/artifact_registry.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/util/rng.h"

namespace e2e {
namespace {

using namespace agmdp;

/// Request-path counters the per-layer metrics difference over a window.
struct DaemonCounters {
  server::ServerStats server;
  server::EngineCacheStats cache;
};

DaemonCounters ReadCounters(const server::Server& daemon) {
  return {daemon.Stats(), daemon.CacheStats()};
}

/// The daemon's request-path counters over a window, as per-layer metrics.
void AddCounterLayers(const DaemonCounters& before, const DaemonCounters& after,
                      uint64_t sample_requests, RunResult& result) {
  const double batched = static_cast<double>(after.server.batched_requests -
                                             before.server.batched_requests);
  result.Add("server.batched_frac",
             sample_requests ? batched / static_cast<double>(sample_requests)
                             : 0.0);
  result.Add("server.batches",
             static_cast<double>(after.server.batches - before.server.batches));
  result.Add("server.shed",
             static_cast<double>(after.server.rejected_queue_full -
                                 before.server.rejected_queue_full));
  const double hits =
      static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  result.Add("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses)
                                                  : 0.0);
  result.Add("cache.evictions", static_cast<double>(after.cache.evictions -
                                                    before.cache.evictions));
}

/// The daemon's engine options: what a load builds on the server side.
pipeline::EngineOptions DaemonEngineOptions() {
  pipeline::EngineOptions options;
  options.threads = server::ServerOptions{}.engine_threads;
  return options;
}

/// Replays `requests` (seed, sequence) one by one on `engine` as a worker
/// does for a batch of one, timing the engine call and the checksum apart,
/// and checks each checksum against `expected`.
void ReplayOnEngine(
    const std::vector<std::pair<const pipeline::ReleaseEngine*,
                                pipeline::SampleRequest>>& requests,
    const std::vector<uint64_t>& expected, double request_p50_ms,
    RunResult& result) {
  std::vector<double> engine_ms;
  std::vector<double> checksum_ms;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Clock::time_point start = Clock::now();
    auto graphs = requests[i].first->SampleMany(1, requests[i].second);
    engine_ms.push_back(MsSince(start));
    if (!graphs.ok()) {
      result.Expect(false, "replayed request " + std::to_string(i) +
                               " failed: " + graphs.status().ToString());
      continue;
    }
    const Clock::time_point checksum_start = Clock::now();
    const uint64_t checksum = server::GraphChecksum(graphs.value()[0]);
    checksum_ms.push_back(MsSince(checksum_start));
    result.Expect(checksum == expected[i],
                  "replayed request " + std::to_string(i) +
                      " matches the served checksum");
  }
  const double engine_p50 = Quantile(engine_ms, 0.5);
  const double checksum_p50 = Quantile(checksum_ms, 0.5);
  result.Add("server.engine_ms", engine_p50);
  result.Add("server.checksum_ms", checksum_p50);
  result.Add("server.engine_share",
             request_p50_ms > 0 ? (engine_p50 + checksum_p50) / request_p50_ms
                                : 0.0);
}

double MeanUtility(const eval::ReferenceProfile& profile,
                   const std::vector<graph::AttributedGraph>& graphs,
                   int threads) {
  std::vector<double> scores;
  for (const graph::AttributedGraph& g : graphs) {
    scores.push_back(CompositeUtility(
        eval::EvaluateRelease(profile, g, threads).Flatten()));
  }
  return Mean(scores);
}

// ---------------------------------------------------------- serve_batch

class ServeBatchWorkload final : public Workload {
 public:
  explicit ServeBatchWorkload(const RunContext& ctx) : ctx_(ctx) {}

  /// Set-up: kInputs independent inputs (dataset + FCL fit), each loaded
  /// into the daemon as its own hot engine. The window serves them one
  /// after another, so a run averages over many inputs: the per-sample
  /// cost depends on the fitted acceptance vector, which differs from
  /// input to input by up to 3x.
  void Setup() override {
    daemon_.reset();  // releases the registry's lock before it is replaced
    hot_.clear();
    setup_loads_ms_.clear();
    registry_path_ = ctx_.workdir + "/batch.registry";
    std::remove(registry_path_.c_str());
    server::ServerOptions options;
    options.port = 0;
    options.registry_path = registry_path_;
    // The self-test's 1-s window is too short to give 24 inputs a turn each.
    const int inputs = ctx_.tiny ? 3 : kInputs;
    options.tenant_budgets = {{kTenant, 2.0 * inputs},
                              {kProbeTenant, kProbeBudget}};
    daemon_ = Must(server::Server::Start(options), "start daemon");
    const registry::RegistryStats journal_before = daemon_->registry()->Stats();
    server::Client client = Must(
        server::Client::Connect("127.0.0.1", daemon_->port()), "connect");

    const auto id = datasets::DatasetId::kEpinions;
    const double scale = ctx_.tiny ? 0.03 : 0.5;
    uint64_t nodes = 0;
    uint64_t edges = 0;
    for (int k = 0; k < inputs; ++k) {
      Hot hot;
      const graph::AttributedGraph input = Must(
          Traced("datasets.generate", k,
                 [&] {
                   return datasets::GenerateDataset(
                       id, scale, util::Rng::Substream(ctx_.seed, k).Next());
                 }),
          "generate epinions stand-in");
      nodes += input.num_nodes();
      edges += input.num_edges();
      hot.profile = Traced("eval.profile", k, [&] {
        return eval::ProfileReference(input, ctx_.cores);
      });
      // epsilon = ln 3, the top of the paper's grid: at ln 2 the DP noise
      // in the fitted ΘF alone moves the per-sample cost by up to 2x.
      pipeline::PipelineConfig config;
      config.model = "fcl";
      config.epsilon = std::log(3.0);
      util::Rng rng = util::Rng::Substream(ctx_.seed, 100 + k);
      hot.artifact = Must(Traced("pipeline.fit", k,
                                 [&] {
                                   return pipeline::FitReleaseArtifact(
                                       input, config, rng);
                                 }),
                          "fit FCL artifact");
      hot.name = "hot" + std::to_string(k);
      hot.family = util::Rng::Substream(ctx_.seed, 200 + k).Next();
      hot.path = ctx_.workdir + "/" + hot.name + ".json";
      MustOk(pipeline::WriteReleaseArtifact(hot.artifact, hot.path),
             "write artifact");

      server::Request load;
      load.op = server::RequestOp::kLoad;
      load.id = static_cast<uint64_t>(k);
      load.tenant = kTenant;
      load.name = hot.name;
      load.artifact = hot.path;
      const Clock::time_point start = Clock::now();
      const server::Response response = Must(
          Traced("server.load", k, [&] { return client.Call(load); }),
          "load");
      setup_loads_ms_.push_back(MsSince(start));
      MustOk(response.status, "load " + hot.name);
      hot_.push_back(std::move(hot));
    }
    const registry::RegistryStats journal_after = daemon_->registry()->Stats();
    setup_appends_ = journal_after.appends - journal_before.appends;
    setup_fsyncs_ = journal_after.fsyncs - journal_before.fsyncs;
    input_ = std::to_string(inputs) + " epinions stand-ins at scale " +
             std::to_string(scale) + " (" + std::to_string(nodes / inputs) +
             " nodes, " + std::to_string(edges / inputs) +
             " edges on average), one FCL artifact each";
  }

  Window Measure(double seconds) override {
    const int connections = std::max(1, std::min(4, ctx_.cores));
    const DaemonCounters before = ReadCounters(*daemon_);
    const size_t inputs = hot_.size();
    // Input k is served during the k-th slice of the window. The clients
    // keep their connections across slices; each request goes to the
    // input of the slice it is sent in, and sequence numbers come from one
    // counter per input, so concurrently queued requests are contiguous
    // and coalesce.
    std::vector<std::atomic<uint64_t>> next_sequence(inputs);
    for (auto& next : next_sequence) next.store(0);
    struct Served {
      size_t input;
      uint64_t sequence;
      uint64_t checksum;
      double ms;
    };
    std::vector<std::vector<Served>> served(connections);
    std::vector<uint64_t> failures(connections, 0);
    const Clock::time_point start = Clock::now();
    const bool probe_refused = ctx_.probe_over_budget && !ProbeOverBudget();
    const auto slice = std::chrono::microseconds(
        static_cast<int64_t>(seconds * 1e6 / static_cast<double>(inputs)));
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        auto client = server::Client::Connect("127.0.0.1", daemon_->port());
        for (;;) {
          const size_t k = static_cast<size_t>((Clock::now() - start) / slice);
          if (k >= inputs) break;
          server::Request request;
          request.op = server::RequestOp::kSample;
          request.sequence = next_sequence[k].fetch_add(1);
          request.id = Key(k, request.sequence);
          request.tenant = kTenant;
          request.name = hot_[k].name;
          request.seed = hot_[k].family;
          if (!client.ok()) {
            ++failures[c];
            continue;
          }
          const Clock::time_point sent = Clock::now();
          auto response = Traced("server.request", request.id, [&] {
            return client.value().Call(request);
          });
          const double ms = MsSince(sent);
          if (!response.ok() || !response.value().status.ok() ||
              response.value().graphs.size() != 1) {
            ++failures[c];
            continue;
          }
          served[c].push_back({k, request.sequence,
                               response.value().graphs[0].checksum, ms});
        }
      });
    }
    for (std::thread& t : threads) t.join();

    Window w;
    w.elapsed_ms = MsSince(start);
    w.load_ms = setup_loads_ms_;
    // One group per input: the mean over inputs of their percentiles.
    w.latency_groups.resize(inputs);
    issued_.assign(inputs, 0);
    for (size_t k = 0; k < inputs; ++k) {
      issued_[k] = next_sequence[k].load();
      w.attempted += issued_[k];
    }
    if (ctx_.probe_over_budget) {
      ++w.attempted;
      if (probe_refused) ++w.failed;
    }
    for (int c = 0; c < connections; ++c) {
      w.failed += failures[c];
      for (const Served& s : served[c]) {
        w.latency_ms.push_back(s.ms);
        w.latency_groups[s.input].push_back(s.ms);
        w.checksums[Key(s.input, s.sequence)] = s.checksum;
      }
    }
    counters_before_ = before;
    counters_after_ = ReadCounters(*daemon_);
    connections_ = connections;
    return w;
  }

  double Check(const Window& w, RunResult& result) override {
    // Per input, a sequential oracle over every sequence number handed
    // out, in chunks (SampleMany over a range equals a sequential loop).
    pipeline::EngineOptions options;
    options.threads = ctx_.cores;
    constexpr uint64_t kChunk = 32;
    std::vector<double> utility;
    for (size_t k = 0; k < hot_.size(); ++k) {
      auto oracle = Must(
          pipeline::ReleaseEngine::Create(hot_[k].artifact, options),
          "oracle engine");
      for (uint64_t base = 0; base < issued_[k]; base += kChunk) {
        pipeline::SampleRequest request;
        request.seed = hot_[k].family;
        request.sequence = base;
        const int n = static_cast<int>(std::min(kChunk, issued_[k] - base));
        const std::vector<graph::AttributedGraph> graphs =
            Must(oracle->SampleMany(n, request), "oracle SampleMany");
        for (int i = 0; i < n; ++i) {
          auto it = w.checksums.find(Key(k, base + i));
          if (it != w.checksums.end()) {
            result.Expect(it->second == server::GraphChecksum(graphs[i]),
                          hot_[k].name + " sequence " +
                              std::to_string(base + i) +
                              " matches the sequential oracle");
          }
        }
        if (base == 0) {
          utility.push_back(MeanUtility(*hot_[k].profile, {graphs[0]},
                                        ctx_.cores));
        }
      }
      result.Expect(issued_[k] > 0, hot_[k].name + " served samples");
    }

    // Each load was charged once, and the journal replays the same charges
    // once the daemon is gone.
    double expected = 0.0;
    for (const Hot& hot : hot_) expected += hot.artifact.epsilon_spent;
    result.Expect(std::fabs(daemon_->ledger().Spent(kTenant) - expected) < 1e-9,
                  "tenant spent " +
                      std::to_string(daemon_->ledger().Spent(kTenant)) +
                      ", expected " + std::to_string(expected));
    daemon_.reset();
    const Clock::time_point replay_start = Clock::now();
    auto journal = Must(Traced("registry.open", 0,
                               [&] {
                                 return registry::ArtifactRegistry::Open(
                                     registry_path_,
                                     registry::RegistryOptions{});
                               }),
                        "reopen registry");
    replay_ms_ = MsSince(replay_start);
    double journaled = 0.0;
    for (const registry::TenantChargeRow& row : journal->TenantCharges()) {
      result.Expect(row.tenant == kTenant,
                    "only the serving tenant was charged, not " + row.tenant);
      journaled += row.epsilon;
    }
    result.Expect(std::fabs(journaled - expected) < 1e-9,
                  "journal replays the tenant's charges");
    result.Info("input", input_);
    result.Info("loop", "closed, " + std::to_string(connections_) +
                            " connections, one engine and seed family at a "
                            "time, " + std::to_string(hot_.size()) +
                            " in turn");
    return Mean(utility);
  }

  void AddLayers(const Window& w,
                 const std::map<std::string, std::vector<double>>& self_ms,
                 const std::map<std::string, std::vector<double>>& setup_ms,
                 RunResult& result) override {
    AddLayerP50(result, self_ms, "server.request_ms", "server.request");
    AddLayerP50(result, setup_ms, "server.load_ms", "server.load");
    AddLayerP50(result, setup_ms, "eval.profile_ms", "eval.profile");
    AddCounterLayers(counters_before_, counters_after_, w.attempted, result);
    result.Add("registry.appends", static_cast<double>(setup_appends_));
    result.Add("registry.fsyncs", static_cast<double>(setup_fsyncs_));
    result.Add("registry.replay_ms", replay_ms_);
    // The first kReplayRequests / (number of inputs) served requests of each
    // input.
    std::vector<std::unique_ptr<pipeline::ReleaseEngine>> engines;
    std::vector<std::pair<const pipeline::ReleaseEngine*,
                          pipeline::SampleRequest>>
        requests;
    std::vector<uint64_t> expected;
    for (size_t k = 0; k < hot_.size(); ++k) {
      engines.push_back(Must(pipeline::ReleaseEngine::Create(
                                 hot_[k].artifact, DaemonEngineOptions()),
                             "replay engine"));
      size_t taken = 0;
      for (auto it = w.checksums.lower_bound(Key(k, 0));
           it != w.checksums.end() && it->first < Key(k + 1, 0) &&
           taken < kReplayRequests / hot_.size();
           ++it, ++taken) {
        pipeline::SampleRequest request;
        request.seed = hot_[k].family;
        request.sequence = it->first - Key(k, 0);
        requests.emplace_back(engines.back().get(), request);
        expected.push_back(it->second);
      }
    }
    auto it = self_ms.find("server.request");
    ReplayOnEngine(requests, expected,
                   it == self_ms.end() ? 0.0 : Quantile(it->second, 0.5),
                   result);
  }

 private:
  static constexpr const char* kTenant = "batch";
  /// --probe-over-budget: a tenant whose budget is below any release's.
  static constexpr const char* kProbeTenant = "probe";
  static constexpr double kProbeBudget = 0.01;
  static constexpr int kInputs = 24;
  static constexpr size_t kReplayRequests = 48;

  struct Hot {
    std::string name;
    std::string path;
    uint64_t family = 0;
    std::optional<eval::ReferenceProfile> profile;
    pipeline::ReleaseArtifact artifact;
  };

  /// Loads input 0's release as a tenant whose budget is below its
  /// epsilon; true when the daemon admits it (it must refuse).
  bool ProbeOverBudget() const {
    auto client = server::Client::Connect("127.0.0.1", daemon_->port());
    if (!client.ok()) return false;
    server::Request load;
    load.op = server::RequestOp::kLoad;
    load.id = 0;
    load.tenant = kProbeTenant;
    load.name = "probe";
    load.artifact = hot_[0].path;
    auto response = client.value().Call(load);
    return response.ok() && response.value().status.ok();
  }

  /// Window output key of (input k, sequence number).
  static uint64_t Key(size_t k, uint64_t sequence) {
    return (static_cast<uint64_t>(k) << 40) | sequence;
  }

  const RunContext& ctx_;
  std::unique_ptr<server::Server> daemon_;
  std::vector<Hot> hot_;
  std::vector<uint64_t> issued_;
  std::string input_;
  std::vector<double> setup_loads_ms_;
  std::string registry_path_;
  uint64_t setup_appends_ = 0;
  uint64_t setup_fsyncs_ = 0;
  double replay_ms_ = 0.0;
  DaemonCounters counters_before_;
  DaemonCounters counters_after_;
  int connections_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeBatchWorkload(const RunContext& ctx) {
  return std::make_unique<ServeBatchWorkload>(ctx);
}

}  // namespace e2e
