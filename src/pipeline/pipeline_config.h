// Configuration and result types for the unified private-release pipeline.
//
// A PipelineConfig describes one release end to end: the global epsilon and
// its split, the structural model (by registry name), the ΘF estimator, and
// the sampler settings. A ReleaseResult carries everything an auditor or a
// benchmark needs afterwards: the synthetic graph, the learned parameters,
// the PrivacyAccountant ledger (whose spends sum to the global epsilon),
// and per-stage wall-clock timings.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/agm/agm_dp.h"
#include "src/dp/privacy_budget.h"
#include "src/graph/attributed_graph.h"
#include "src/util/status.h"

namespace agmdp::pipeline {

struct PipelineConfig {
  /// Global privacy budget for the release.
  double epsilon = 0.6931471805599453;  // ln 2, the paper's headline setting
  /// Stage split; a zero-total split selects the model's default (even
  /// four-way when the model learns a triangle target, S-heavy three-way
  /// otherwise — Section 5 of the paper).
  dp::BudgetSplit split;
  /// Release mechanism by registry tag (mechanisms::FindMechanism): "agm" is
  /// the paper's pipeline; "community_dp" and "kanon_baseline" are the
  /// competing publication schemes in src/mechanisms/.
  std::string mechanism = "agm";
  /// Structural model by registry name (model_registry.h): "tricycle",
  /// "fcl", "bter", "holme_kim", "erdos_renyi". Only consulted by the
  /// "agm" mechanism.
  std::string model = "tricycle";
  /// kanon_baseline: anonymity group size; 0 selects max(2, round(2/eps)),
  /// the "equivalent protection" heuristic.
  uint32_t k_anonymity = 0;
  /// kanon_baseline: t-closeness bound on the per-group attribute
  /// distribution's total-variation distance from the global one.
  double t_closeness = 0.2;
  /// community_dp: number of partition blocks; 0 selects
  /// max(2, min(64, round(sqrt(n)/8))).
  uint32_t community_blocks = 0;
  agm::ThetaFMethod theta_f_method = agm::ThetaFMethod::kEdgeTruncation;
  /// Truncation parameter for ΘF; 0 selects the paper's n^(1/3) heuristic.
  uint32_t truncation_k = 0;
  /// delta for the smooth-sensitivity ΘF variant.
  double smooth_delta = 1e-6;
  /// Group size for sample-and-aggregate; 0 selects sqrt(n).
  uint32_t sa_group_size = 0;
  dp::LadderOptions ladder;
  /// Sampler options (acceptance iterations, threads, model-specific
  /// knobs). `sample.model` and `sample.generator` are overridden by the
  /// registry resolution of `model`.
  agm::AgmSampleOptions sample;

  /// Full structural validation, performed before any budget is spent:
  /// the model must be registered, epsilon finite and positive, the budget
  /// split affordable (non-negative shares whose total is zero — model
  /// default — or at most epsilon), and the sampler/estimator knobs in
  /// range. Every pipeline entry point calls this first, so a bad config
  /// fails with a typed InvalidArgument instead of partway through a fit.
  util::Status Validate() const;

  /// Stable FNV-1a fingerprint of the fit-relevant fields (model, epsilon,
  /// split, ΘF estimator knobs, ladder and acceptance settings). Recorded
  /// in ReleaseArtifact so a consumer can tell which configuration produced
  /// a stored release. Sampler thread counts are excluded: they never
  /// change the output.
  uint64_t Fingerprint() const;
};

/// Shared range checks for the sampler acceptance knobs — one definition
/// for the fit-side PipelineConfig::Validate() and the serving-side
/// artifact boundary (ValidateReleaseArtifact), so the two cannot drift.
util::Status ValidateAcceptanceKnobs(int acceptance_iterations,
                                     double acceptance_tolerance,
                                     double min_acceptance);

/// One accountant entry: (stage label, epsilon spent), in spend order.
using BudgetLedger = std::vector<std::pair<std::string, double>>;

/// Result of a full private release.
struct ReleaseResult {
  graph::AttributedGraph graph;
  agm::AgmParams params;
  /// PrivacyAccountant ledger; spends sum to `epsilon_spent`, which equals
  /// the configured epsilon under the model-default splits.
  BudgetLedger ledger;
  double epsilon_budget = 0.0;
  double epsilon_spent = 0.0;
  /// Wall clock per stage: theta_x, theta_f, degree_sequence,
  /// [triangles,] sample for "agm"; fit, sample for the other mechanisms.
  std::vector<agm::StageSeconds> stage_seconds;
  double total_seconds = 0.0;
  /// The artifact's model: the structural model's registry name for
  /// "agm", the mechanism tag for the other mechanisms.
  std::string model;
};

}  // namespace agmdp::pipeline
