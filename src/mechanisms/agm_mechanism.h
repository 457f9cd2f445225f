// agm: the paper's Attributed Graph Model release (Algorithms 1-2).
//
// Fit learns ΘX, ΘF and the structural parameters under one
// dp::PrivacyAccountant (agm::LearnAgmParamsDp) and packages them with the
// ledger and the config fingerprint. Validation is agm::ValidateAgmParams
// plus "no mechanism payload". Sampling resolves the artifact's structural
// model in the pipeline's model registry and runs agm::SampleAgmGraph.
//
// Calibration: unless EngineOptions::calibrate is off, the sampler runs
// one full acceptance loop at construction from a fixed calibration
// substream and warm-starts every request with the acceptance vector A it
// converged to — steady-state serving then generates the structure once
// through the calibrated filter instead of iterating the cold loop per
// sample. The calibration draw is a pure function of the artifact, so
// every sampler built from one artifact calibrates identically, at any
// pool size.
#pragma once

#include <memory>
#include <vector>

#include "src/mechanisms/release_mechanism.h"

namespace agmdp::mechanisms {

/// \brief The AGM serving handle: the registry-resolved sampler options,
/// the calibrated acceptance vector and the per-request refinement count.
class AgmSampler final : public ArtifactSampler {
 public:
  /// The registry's make_sampler for "agm". Reads `artifact.params` for
  /// the sampler's whole lifetime.
  static util::Result<std::unique_ptr<const ArtifactSampler>> Build(
      const pipeline::ReleaseArtifact& artifact,
      const pipeline::EngineOptions& options, util::WorkerPool* pool);

  util::Result<graph::AttributedGraph> Sample(
      util::Rng& rng, int refine_iterations,
      util::WorkerPool* pool) const override;

  uint64_t ApproxBytes() const override;

  /// Whether requests are served from a calibrated acceptance vector.
  bool calibrated() const { return !calibrated_acceptance_.empty(); }
  const std::vector<double>& calibrated_acceptance() const {
    return calibrated_acceptance_;
  }

 private:
  AgmSampler(const agm::AgmParams& params, agm::AgmSampleOptions base,
             int default_refine_iterations)
      : params_(params),
        base_(std::move(base)),
        default_refine_iterations_(default_refine_iterations) {}

  /// The resolved sampler options for one request (warm start + refinement
  /// count applied when calibrated).
  agm::AgmSampleOptions RequestOptions(int refine_iterations) const;

  const agm::AgmParams& params_;
  /// Registry-resolved sampler options (model kind / generator bound,
  /// artifact acceptance defaults applied).
  agm::AgmSampleOptions base_;
  int default_refine_iterations_;
  /// Converged acceptance vector of the calibration sample; empty when not
  /// calibrated.
  std::vector<double> calibrated_acceptance_;
};

/// The registry's fit for "agm". Reports the theta_x, theta_f,
/// degree_sequence[, triangles] stage timings into `stage_seconds` when
/// non-null. An unregistered structural model or a non-positive epsilon is
/// an InvalidArgument before any budget is spent.
util::Result<pipeline::ReleaseArtifact> FitAgm(
    const graph::AttributedGraph& input, const pipeline::PipelineConfig& config,
    util::Rng& rng, std::vector<agm::StageSeconds>* stage_seconds);

/// The registry's validate for "agm".
util::Status ValidateAgm(const pipeline::ReleaseArtifact& artifact);

}  // namespace agmdp::mechanisms
