#include "src/pipeline/release_pipeline.h"

#include <chrono>
#include <memory>
#include <utility>

#include "src/mechanisms/release_mechanism.h"
#include "src/pipeline/release_engine.h"

namespace agmdp::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// An uncalibrated single-use engine: the paper's cold acceptance loop,
// config sample knobs, pool sized by config.sample.threads.
util::Result<std::unique_ptr<ReleaseEngine>> MakeOneShotEngine(
    ReleaseArtifact artifact, const PipelineConfig& config) {
  EngineOptions options;
  options.threads = config.sample.threads;
  options.calibrate = false;
  options.sample = config.sample;
  return ReleaseEngine::Create(std::move(artifact), options);
}

// Validates the config (before any budget is spent) and fits through the
// mechanism registry; `stage_seconds` receives the mechanism's per-stage
// fit timings, if it reports any.
util::Result<ReleaseArtifact> FitArtifact(
    const graph::AttributedGraph& input, const PipelineConfig& config,
    util::Rng& rng, std::vector<agm::StageSeconds>* stage_seconds) {
  // Validate() rejects a tag the registry does not know.
  if (auto st = config.Validate(); !st.ok()) return st;
  return mechanisms::FindMechanism(config.mechanism)
      ->fit(input, config, rng, stage_seconds);
}

}  // namespace

util::Result<ReleaseArtifact> FitReleaseArtifact(
    const graph::AttributedGraph& input, const PipelineConfig& config,
    util::Rng& rng) {
  return FitArtifact(input, config, rng, /*stage_seconds=*/nullptr);
}

util::Result<graph::AttributedGraph> SampleRelease(
    const agm::AgmParams& params, const PipelineConfig& config,
    util::Rng& rng) {
  // Sampling spends no budget, so fit-side fields (epsilon, split,
  // estimator knobs) are deliberately not validated here; engine creation
  // checks everything sampling actually reads (model resolution,
  // acceptance knobs, parameter sanity).
  auto engine = MakeOneShotEngine(MakeReleaseArtifact(params, config), config);
  if (!engine.ok()) return engine.status();
  return engine.value()->SampleFromStream(rng);
}

util::Result<ReleaseResult> RunPrivateRelease(
    const graph::AttributedGraph& input, const PipelineConfig& config,
    util::Rng& rng) {
  const Clock::time_point start = Clock::now();
  std::vector<agm::StageSeconds> stage_seconds;
  auto artifact = FitArtifact(input, config, rng, &stage_seconds);
  if (!artifact.ok()) return artifact.status();
  // Mechanisms without a per-stage breakdown are timed as one stage.
  if (stage_seconds.empty()) {
    stage_seconds.push_back({"fit", SecondsSince(start)});
  }

  const Clock::time_point sample_start = Clock::now();
  auto engine = MakeOneShotEngine(std::move(artifact).value(), config);
  if (!engine.ok()) return engine.status();
  auto synthetic = engine.value()->SampleFromStream(rng);
  if (!synthetic.ok()) return synthetic.status();

  const ReleaseArtifact& fitted = engine.value()->artifact();
  ReleaseResult result{std::move(synthetic).value(),
                       fitted.params,
                       fitted.ledger,
                       fitted.epsilon_budget,
                       fitted.epsilon_spent,
                       std::move(stage_seconds),
                       0.0,
                       fitted.model};
  result.stage_seconds.push_back({"sample", SecondsSince(sample_start)});
  result.total_seconds = SecondsSince(start);
  return result;
}

}  // namespace agmdp::pipeline
