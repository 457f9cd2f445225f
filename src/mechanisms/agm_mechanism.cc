#include "src/mechanisms/agm_mechanism.h"

#include <cmath>
#include <utility>

#include "src/agm/agm_dp.h"
#include "src/dp/privacy_budget.h"
#include "src/pipeline/model_registry.h"

namespace agmdp::mechanisms {

namespace {

/// Base seed of the calibration substream family. The calibration draw is
/// a pure function of (this constant, the artifact fingerprint), so two
/// samplers built from the same artifact calibrate identically — at any
/// pool size, on any machine.
constexpr uint64_t kCalibrationSeed = 0xa6dca11b7a7e5eedULL;

// Maps the pipeline config onto the AGM learner's options. Models that
// learn a triangle target follow TriCycLe's budget semantics (even four-way
// default split), the rest follow FCL's (S-heavy three-way).
agm::AgmDpOptions MakeLearnOptions(const pipeline::PipelineConfig& config,
                                   const pipeline::StructuralModelSpec& spec) {
  agm::AgmDpOptions options;
  options.epsilon = config.epsilon;
  options.model = spec.needs_triangles ? agm::StructuralModelKind::kTriCycLe
                                       : agm::StructuralModelKind::kFcl;
  options.theta_f_method = config.theta_f_method;
  options.truncation_k = config.truncation_k;
  options.smooth_delta = config.smooth_delta;
  options.sa_group_size = config.sa_group_size;
  options.split = config.split;
  options.ladder = config.ladder;
  return options;
}

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
  const pipeline::StructuralModelSpec* spec =
      pipeline::FindStructuralModel(config.model);
  if (spec == nullptr) {
    return util::Status::InvalidArgument(
        "agm: unknown structural model '" + config.model +
        "' (registered: " + pipeline::StructuralModelNameList() + ")");
  }
  if (!std::isfinite(config.epsilon) || config.epsilon <= 0.0) {
    return util::Status::InvalidArgument(
        "agm: epsilon must be a positive finite number");
  }
  dp::PrivacyAccountant accountant(config.epsilon);
  auto params = agm::LearnAgmParamsDp(input, MakeLearnOptions(config, *spec),
                                      accountant, rng, stage_seconds);
  if (!params.ok()) return params.status();

  pipeline::ReleaseArtifact artifact =
      pipeline::MakeReleaseArtifact(std::move(params).value(), config);
  artifact.ledger = accountant.ledger();
  artifact.epsilon_budget = accountant.total();
  artifact.epsilon_spent = accountant.spent();
  return artifact;
}

util::Status ValidateAgm(const pipeline::ReleaseArtifact& artifact) {
  if (!artifact.payload.Empty()) {
    return util::Status::InvalidArgument(
        "agm: artifacts must not carry a mechanism payload");
  }
  return agm::ValidateAgmParams(artifact.params);
}

}  // namespace agmdp::mechanisms
