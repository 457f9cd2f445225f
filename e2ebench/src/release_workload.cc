// `release`: the curator's cold path, one closed-loop caller. Each cell
// runs GraphSource::Open(.agmbin) -> Materialize -> FitReleaseArtifact ->
// ReleaseEngine::Create (calibrated) -> Sample -> EvaluateRelease with the
// default AGM-TriCycLe model, cycling over the epinions epsilon grid.
// Calibration plus sampling dominate a cell, so this is where the sampler
// and the structural models are measured; the server and registry idle.
// The traced run adds two probes outside the cell timing: the structural
// generator alone, and the other registered mechanisms on the cell's input.
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "e2ebench/src/workloads.h"
#include "src/datasets/datasets.h"
#include "src/eval/utility_report.h"
#include "src/graph/graph_source.h"
#include "src/models/chung_lu.h"
#include "src/models/tricycle.h"
#include "src/pipeline/model_registry.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/server/protocol.h"

namespace e2e {
namespace {

using namespace agmdp;

class ReleaseWorkload final : public Workload {
 public:
  explicit ReleaseWorkload(const RunContext& ctx) : ctx_(ctx) {}

  void Setup() override {
    profile_.reset();
    const auto id = datasets::DatasetId::kEpinions;
    const double scale = ctx_.tiny ? 0.03 : 0.5;
    graph::AttributedGraph input =
        Must(Traced("datasets.generate", 0,
                    [&] {
                      return datasets::GenerateDataset(id, scale, ctx_.seed);
                    }),
             "generate epinions stand-in");
    path_ = ctx_.workdir + "/epinions.agmbin";
    MustOk(Traced("graph.write", 0,
                  [&] { return graph::WriteGraph(input, path_); }),
           "write " + path_);
    profile_ = Traced("eval.profile", 0, [&] {
      return eval::ProfileReference(input, ctx_.cores);
    });
    epsilons_ = datasets::PaperSpec(id).table_epsilons;
    input_ = "epinions stand-in scale " + std::to_string(scale) + ": " +
             std::to_string(input.num_nodes()) + " nodes, " +
             std::to_string(input.num_edges()) + " edges";
  }

  Window Measure(double seconds) override {
    Window w;
    errors_.clear();
    first_artifact_.reset();
    double probe_ms = 0.0;
    const Clock::time_point start = Clock::now();
    // At least the cells the utility score covers, so it always covers the
    // same ones.
    for (uint64_t cell = 0;
         cell < UtilityCells() || MsSince(start) < seconds * 1e3; ++cell) {
      ++w.attempted;
      std::optional<pipeline::ReleaseArtifact> artifact;
      std::optional<graph::AttributedGraph> input;
      const Clock::time_point cell_start = Clock::now();
      if (!RunCell(cell, w, &artifact, &input)) {
        ++w.failed;
        continue;
      }
      w.latency_ms.push_back(MsSince(cell_start));
      if (Tracer::enabled()) {
        const Clock::time_point probe_start = Clock::now();
        GenerateDirect(*artifact, cell);
        ProbeMechanisms(*input, cell);
        probe_ms += MsSince(probe_start);
      }
      if (cell == 0) first_artifact_ = std::move(artifact);
    }
    // The traced run's probes are not part of a cell.
    w.elapsed_ms = MsSince(start) - probe_ms;
    return w;
  }

  double Check(const Window& w, RunResult& result) override {
    for (const std::string& error : errors_) result.Expect(false, error);
    result.Expect(first_artifact_.has_value(), "cell 0 completed");
    if (first_artifact_.has_value()) {
      // A second engine with a different pool size must sample the same
      // bits for the same request.
      pipeline::EngineOptions options;
      options.threads = ctx_.cores > 1 ? 1 : 2;
      auto engine = Must(
          pipeline::ReleaseEngine::Create(*first_artifact_, options),
          "second engine");
      pipeline::SampleRequest request;
      request.seed = ctx_.seed;
      request.sequence = 0;
      request.threads = options.threads;
      const graph::AttributedGraph g =
          Must(engine->Sample(request), "second engine sample");
      auto it = w.checksums.find(0);
      result.Expect(it != w.checksums.end() &&
                        it->second == server::GraphChecksum(g),
                    "cell 0 sample is bitwise-identical at another pool size");
    }
    std::vector<double> utility;
    for (uint64_t cell = 0; cell < UtilityCells(); ++cell) {
      auto it = w.utility.find(cell);
      result.Expect(it != w.utility.end(),
                    "grid cell " + std::to_string(cell) + " was scored");
      if (it != w.utility.end()) utility.push_back(it->second);
    }
    result.Info("input", input_);
    result.Info("loop", "closed, 1 caller");
    return Mean(utility);
  }

  void AddLayers(const Window&,
                 const std::map<std::string, std::vector<double>>& self_ms,
                 const std::map<std::string, std::vector<double>>& setup_ms,
                 RunResult& result) override {
    AddLayerP50(result, self_ms, "graph.open_ms", "graph.open");
    AddLayerP50(result, self_ms, "graph.materialize_ms", "graph.materialize");
    AddLayerP50(result, self_ms, "pipeline.fit_ms", "pipeline.fit");
    AddLayerP50(result, self_ms, "pipeline.engine_create_ms",
                "pipeline.engine_create");
    AddLayerP50(result, self_ms, "pipeline.sample_ms", "pipeline.sample");
    AddLayerP50(result, self_ms, "models.generate_ms", "models.generate");
    AddLayerP50(result, self_ms, "mechanisms.fit_ms", "mechanisms.fit");
    AddLayerP50(result, self_ms, "mechanisms.sample_ms", "mechanisms.sample");
    AddLayerP50(result, self_ms, "eval.evaluate_ms", "eval.evaluate");
    AddLayerP50(result, self_ms, "server.checksum_ms", "server.checksum");
    AddLayerP50(result, self_ms, "bench.op_self_ms", "bench.cell");
    AddLayerP50(result, setup_ms, "eval.profile_ms", "eval.profile");
  }

 private:
  /// The utility score is the mean over the first three passes of the
  /// epsilon grid (one pass leaves it at the mercy of four DP draws).
  uint64_t UtilityCells() const { return 3 * epsilons_.size(); }

  /// One release cell; false (and the cell counts as failed) when any
  /// library call fails.
  bool RunCell(uint64_t cell, Window& w,
               std::optional<pipeline::ReleaseArtifact>* artifact_out,
               std::optional<graph::AttributedGraph>* input_out) {
    const Span op("bench.cell", cell);
    auto source = Traced("graph.open", cell,
                         [&] { return graph::GraphSource::Open(path_); });
    if (!source.ok()) return false;
    graph::AttributedGraph input = Traced(
        "graph.materialize", cell, [&] { return source.value().Materialize(); });

    pipeline::PipelineConfig config;
    config.epsilon = epsilons_[cell % epsilons_.size()];
    config.sample.threads = ctx_.cores;
    util::Rng rng = util::Rng::Substream(ctx_.seed, cell);
    auto artifact = Traced("pipeline.fit", cell, [&] {
      return pipeline::FitReleaseArtifact(input, config, rng);
    });
    if (!artifact.ok()) return false;
    CheckLedger(cell, config.epsilon, artifact.value());

    pipeline::EngineOptions options;
    options.threads = ctx_.cores;
    const Clock::time_point create_start = Clock::now();
    auto engine = Traced("pipeline.engine_create", cell, [&] {
      return pipeline::ReleaseEngine::Create(artifact.value(), options);
    });
    if (!engine.ok()) return false;
    w.load_ms.push_back(MsSince(create_start));

    pipeline::SampleRequest request;
    request.seed = ctx_.seed;
    request.sequence = cell;
    request.threads = ctx_.cores;
    auto sample = Traced("pipeline.sample", cell,
                         [&] { return engine.value()->Sample(request); });
    if (!sample.ok()) return false;
    const eval::UtilityReport report = Traced("eval.evaluate", cell, [&] {
      return eval::EvaluateRelease(*profile_, sample.value(), ctx_.cores);
    });
    w.utility[cell] = CompositeUtility(report.Flatten());
    w.checksums[cell] = Traced("server.checksum", cell, [&] {
      return server::GraphChecksum(sample.value());
    });
    *artifact_out = std::move(artifact).value();
    *input_out = std::move(input);
    return true;
  }

  /// Every ledger must sum to the epsilon the cell configured.
  void CheckLedger(uint64_t cell, double epsilon,
                   const pipeline::ReleaseArtifact& artifact) {
    double sum = 0.0;
    for (const auto& entry : artifact.ledger) sum += entry.second;
    const double tol = 1e-9 * std::max(1.0, epsilon);
    if (std::fabs(sum - epsilon) > tol ||
        std::fabs(artifact.epsilon_spent - epsilon) > tol) {
      errors_.push_back("cell " + std::to_string(cell) + " ledger sums to " +
                        std::to_string(sum) + ", configured epsilon " +
                        std::to_string(epsilon));
    }
  }

  /// The traced run's models probe: the artifact's structural generator
  /// called directly on the fitted parameters (no acceptance loop), which
  /// splits Sample into generation and acceptance.
  void GenerateDirect(const pipeline::ReleaseArtifact& artifact,
                      uint64_t cell) const {
    const pipeline::StructuralModelSpec* spec =
        pipeline::FindStructuralModel(artifact.model);
    if (spec == nullptr || !spec->builtin) return;
    const agm::AgmParams& params = artifact.params;
    util::Rng rng = util::Rng::Substream(ctx_.seed + 1, cell);
    const Span span("models.generate", cell);
    if (spec->kind == agm::StructuralModelKind::kTriCycLe) {
      (void)models::GenerateTriCycLe(params.degree_sequence,
                                     params.target_triangles, rng);
    } else {
      (void)models::FastChungLu(params.degree_sequence, rng);
    }
  }

  /// The traced run's mechanisms probe: the two non-AGM mechanisms of the
  /// registry (community_dp, kanon_baseline) fitted on the cell's input at
  /// the cell's epsilon, then one sample of each on an engine with the
  /// cell's options. One span covers both fits, one both samples.
  void ProbeMechanisms(const graph::AttributedGraph& input, uint64_t cell) {
    pipeline::PipelineConfig config;
    config.epsilon = epsilons_[cell % epsilons_.size()];
    std::vector<pipeline::ReleaseArtifact> artifacts;
    {
      const Span span("mechanisms.fit", cell);
      for (const char* mechanism : {"community_dp", "kanon_baseline"}) {
        config.mechanism = mechanism;
        util::Rng rng = util::Rng::Substream(ctx_.seed + 2, cell);
        auto artifact = pipeline::FitReleaseArtifact(input, config, rng);
        if (!artifact.ok()) {
          errors_.push_back("cell " + std::to_string(cell) + " " + mechanism +
                            " fit: " + artifact.status().ToString());
          continue;
        }
        artifacts.push_back(std::move(artifact).value());
      }
    }
    pipeline::EngineOptions options;
    options.threads = ctx_.cores;
    pipeline::SampleRequest request;
    request.seed = ctx_.seed;
    request.sequence = cell;
    request.threads = ctx_.cores;
    const Span span("mechanisms.sample", cell);
    for (const pipeline::ReleaseArtifact& artifact : artifacts) {
      auto engine = pipeline::ReleaseEngine::Create(artifact, options);
      util::Status status = engine.status();
      if (engine.ok()) status = engine.value()->Sample(request).status();
      if (!status.ok()) {
        errors_.push_back("cell " + std::to_string(cell) + " " +
                          artifact.mechanism + " sample: " +
                          status.ToString());
      }
    }
  }

  const RunContext& ctx_;
  std::string path_;
  std::string input_;
  std::vector<double> epsilons_;
  std::optional<eval::ReferenceProfile> profile_;
  std::optional<pipeline::ReleaseArtifact> first_artifact_;
  /// Failed ledger checks and probe calls, reported by Check().
  std::vector<std::string> errors_;
};

}  // namespace

std::unique_ptr<Workload> MakeReleaseWorkload(const RunContext& ctx) {
  return std::make_unique<ReleaseWorkload>(ctx);
}

}  // namespace e2e
