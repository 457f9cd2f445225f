// The unified private-release pipeline: fit → sample with one
// PrivacyAccountant threaded through every DP stage.
//
// The contract:
//
//   * Budget accounting — every epsilon spend of the release is recorded in
//     one accountant; the returned ledger's spends sum to the configured
//     global epsilon under the model-default splits (sequential
//     composition, Theorem 2), so auditing the ledger audits the release.
//   * Post-processing — only the fit (FitReleaseArtifact, or the fit half
//     of RunPrivateRelease) reads the sensitive input; sampling is pure
//     post-processing and can be repeated at no additional privacy cost.
//   * Determinism — for a fixed config and Rng seed the synthetic graph is
//     bitwise-identical at any `sample.threads` setting (see
//     agm_sampler.h and DESIGN.md).
//
// There is one way to fit — the registry entry of config.mechanism
// (src/mechanisms/release_mechanism.h), after PipelineConfig::Validate —
// and one stored form, the ReleaseArtifact. These free functions are thin
// wrappers over it and the serving layer (release_engine.h): the sampling
// halves construct an uncalibrated ReleaseEngine per call, so one-shot and
// serving paths share one code path for every mechanism. Long-lived
// consumers should hold a ReleaseEngine instead of looping over these —
// see DESIGN.md "Serving layer".
#pragma once

#include "src/pipeline/model_registry.h"
#include "src/pipeline/pipeline_config.h"
#include "src/pipeline/release_artifact.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::pipeline {

/// Fit + packaging through the registry entry of `config.mechanism`: the
/// artifact a ReleaseEngine (or `agmdp sample`) consumes, carrying the
/// parameters, the full ledger, and the config fingerprint. Fails on an
/// invalid config (PipelineConfig::Validate) before any budget is spent.
util::Result<ReleaseArtifact> FitReleaseArtifact(
    const graph::AttributedGraph& input, const PipelineConfig& config,
    util::Rng& rng);

/// Samples a synthetic graph from already-learned AGM parameters under
/// `config`'s model and sampler settings, through a one-shot uncalibrated
/// engine (the cold acceptance loop). Pure post-processing.
util::Result<graph::AttributedGraph> SampleRelease(
    const agm::AgmParams& params, const PipelineConfig& config,
    util::Rng& rng);

/// The end-to-end private release of `config.mechanism`: fit + sample
/// under one accountant, with per-stage wall-clock metrics in the result
/// (AGM's fit stages, or one "fit" stage, then "sample").
util::Result<ReleaseResult> RunPrivateRelease(
    const graph::AttributedGraph& input, const PipelineConfig& config,
    util::Rng& rng);

}  // namespace agmdp::pipeline
