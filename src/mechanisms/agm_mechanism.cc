#include "src/mechanisms/agm_mechanism.h"

#include <utility>

#include "src/pipeline/model_registry.h"
#include "src/pipeline/release_pipeline.h"

namespace agmdp::mechanisms {

namespace {

/// Base seed of the calibration substream family. The calibration draw is
/// a pure function of (this constant, the artifact fingerprint), so two
/// samplers built from the same artifact calibrate identically — at any
/// pool size, on any machine.
constexpr uint64_t kCalibrationSeed = 0xa6dca11b7a7e5eedULL;

}  // namespace

util::Result<std::unique_ptr<const ArtifactSampler>> AgmSampler::Build(
    const pipeline::ReleaseArtifact& artifact,
    const pipeline::EngineOptions& options, util::WorkerPool* pool) {
  const pipeline::StructuralModelSpec* spec =
      pipeline::FindStructuralModel(artifact.model);
  if (spec == nullptr) {
    return util::Status::InvalidArgument(
        "release engine: artifact model '" + artifact.model +
        "' is not registered (registered: " +
        pipeline::StructuralModelNameList() + ")");
  }

  // Resolve the sampler options once: caller knobs, then the artifact's
  // baked acceptance settings, then the registry's model binding.
  agm::AgmSampleOptions base = options.sample;
  base.acceptance_iterations = artifact.acceptance_iterations;
  base.acceptance_tolerance = artifact.acceptance_tolerance;
  base.min_acceptance = artifact.min_acceptance;
  base.pool = nullptr;
  base.initial_acceptance = nullptr;
  base.final_acceptance = nullptr;
  if (spec->builtin) {
    base.model = spec->kind;
    base.generator = nullptr;
  } else {
    base.generator = spec->generator;
  }

  std::unique_ptr<AgmSampler> sampler(new AgmSampler(
      artifact.params, std::move(base), options.default_refine_iterations));
  if (options.calibrate && sampler->base_.acceptance_iterations > 0) {
    agm::AgmSampleOptions calibration = sampler->base_;
    calibration.pool = pool;
    calibration.final_acceptance = &sampler->calibrated_acceptance_;
    util::Rng rng =
        util::Rng::Substream(kCalibrationSeed, artifact.config_fingerprint);
    auto sample = agm::SampleAgmGraph(artifact.params, calibration, rng);
    if (!sample.ok()) return sample.status();
  }
  return std::unique_ptr<const ArtifactSampler>(std::move(sampler));
}

agm::AgmSampleOptions AgmSampler::RequestOptions(int refine_iterations) const {
  agm::AgmSampleOptions resolved = base_;
  if (calibrated()) {
    resolved.initial_acceptance = &calibrated_acceptance_;
    resolved.acceptance_iterations = refine_iterations >= 0
                                         ? refine_iterations
                                         : default_refine_iterations_;
  }
  return resolved;
}

util::Result<graph::AttributedGraph> AgmSampler::Sample(
    util::Rng& rng, int refine_iterations, util::WorkerPool* pool) const {
  agm::AgmSampleOptions resolved = RequestOptions(refine_iterations);
  if (pool == nullptr) {
    // Inline sequential sampling: no shared state, so concurrent requests
    // proceed in parallel without coordination.
    resolved.threads = 1;
  } else {
    resolved.pool = pool;
  }
  return agm::SampleAgmGraph(params_, resolved, rng);
}

uint64_t AgmSampler::ApproxBytes() const {
  return calibrated_acceptance_.size() * sizeof(double) + sizeof(AgmSampler);
}

util::Result<pipeline::ReleaseArtifact> FitAgm(
    const graph::AttributedGraph& input, const pipeline::PipelineConfig& config,
    util::Rng& rng, std::vector<agm::StageSeconds>* stage_seconds) {
  auto fit = pipeline::FitPrivateParams(input, config, rng);
  if (!fit.ok()) return fit.status();
  if (stage_seconds != nullptr) {
    *stage_seconds = std::move(fit.value().stage_seconds);
  }
  return pipeline::MakeReleaseArtifact(fit.value(), config);
}

}  // namespace agmdp::mechanisms
