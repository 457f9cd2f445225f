// The serializable private release: a mechanism's fitted parameters plus
// the accountant ledger and provenance metadata, as one JSON document.
//
// Per the paper's Theorem 2 the fitted parameters *are* the release — once
// learned under the DP budget they can be stored, shipped, and resampled
// arbitrarily often at zero additional privacy cost. The artifact is the
// only stored form of a release and the unit of exchange of the serving
// layer: `agmdp fit` writes one, `agmdp sample` / pipeline::ReleaseEngine /
// the daemon consume it, and the embedded ledger keeps the release
// auditable after the fitting process is gone.
//
// The format is versioned JSON (schema "agmdp.release-artifact",
// kReleaseArtifactSchemaVersion): doubles are serialized with 17
// significant digits so a round trip is bit-exact, and the two uint64
// fields (config fingerprint, triangle target) travel as decimal strings
// because JSON numbers lose integers above 2^53. The codec names no
// mechanism: `mechanism_payload` is written exactly when the payload is
// non-empty and read exactly when present. ValidateReleaseArtifact runs
// the tag-agnostic checks and then the registry's per-mechanism rules
// (mechanisms::MechanismSpec::validate), so every reader rejects unknown
// schema versions and tags, dimension mismatches, and non-finite or
// negative values instead of propagating garbage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/agm/agm_sampler.h"
#include "src/pipeline/pipeline_config.h"
#include "src/util/status.h"

namespace agmdp::pipeline {

/// Bump when the JSON layout changes incompatibly; readers reject any
/// other version.
inline constexpr int kReleaseArtifactSchemaVersion = 1;

/// \brief Mechanism-specific fitted state for the non-AGM publication
/// schemes. Empty (all vectors empty, scalars zero) for "agm" artifacts —
/// the AGM release lives entirely in `params`.
///
/// community_dp: `node_blocks[v]` is the (private) community of node v,
/// `block_edges` holds the noised edge count of every unordered block pair
/// in row-major upper-triangular order (size B(B+1)/2), and `block_attr`
/// holds per-block attribute-config histograms (size B * 2^w).
///
/// kanon_baseline: `node_blocks[v]` is node v's anonymity group,
/// `block_attr` the t-closeness-blended per-group attribute distribution,
/// and the anonymized degrees travel in `params.degree_sequence`.
struct MechanismPayload {
  uint32_t num_blocks = 0;
  std::vector<uint32_t> node_blocks;
  std::vector<double> block_edges;
  std::vector<double> block_attr;
  /// kanon_baseline knobs, recorded for the "equivalent protection" ledger.
  uint32_t k_anonymity = 0;
  double t_closeness = 0.0;

  bool Empty() const {
    return num_blocks == 0 && node_blocks.empty() && block_edges.empty() &&
           block_attr.empty() && k_anonymity == 0 && t_closeness == 0.0;
  }
};

/// \brief A stored private release: parameters + ledger + provenance.
struct ReleaseArtifact {
  int schema_version = kReleaseArtifactSchemaVersion;
  /// Release mechanism by registry tag (mechanisms::FindMechanism).
  /// Validated at every read boundary; unknown tags are a typed
  /// InvalidArgument, never silently served.
  std::string mechanism = "agm";
  /// Structural model by registry name; resolved when an engine is built.
  /// Non-AGM mechanisms carry their mechanism tag here (they do not use
  /// the structural-model registry).
  std::string model;
  /// Mechanism-specific fitted state; empty for "agm".
  MechanismPayload payload;
  /// PipelineConfig::Fingerprint() of the configuration that produced the
  /// fit (provenance only — consumers never re-derive settings from it).
  uint64_t config_fingerprint = 0;
  /// Budget the fit ran under and what it actually spent; both zero for
  /// non-private artifacts (the exact-parameter baselines).
  double epsilon_budget = 0.0;
  double epsilon_spent = 0.0;
  /// The accountant ledger of the fit, in spend order.
  BudgetLedger ledger;
  /// The fitted parameters — the release itself.
  agm::AgmParams params;
  /// Sampler defaults baked at fit time (a consumer may override them per
  /// request; these are the settings the producer validated).
  int acceptance_iterations = 3;
  double acceptance_tolerance = 0.01;
  double min_acceptance = 1e-3;
};

/// Packages parameters under `config`'s mechanism, model, fingerprint and
/// sampler defaults, with an empty ledger. Fits add their ledger and
/// payload; the non-private baselines and SampleRelease serve it as is.
ReleaseArtifact MakeReleaseArtifact(const agm::AgmParams& params,
                                    const PipelineConfig& config);

/// Structural validation: supported schema version, registered mechanism,
/// named model, finite spends consistent with the ledger and the budget,
/// sane acceptance knobs — then the mechanism's own rules
/// (MechanismSpec::validate). Run by the reader, the writer and
/// ReleaseEngine::Create.
util::Status ValidateReleaseArtifact(const ReleaseArtifact& artifact);

/// Deterministic JSON serialization (byte-identical for equal artifacts).
std::string ReleaseArtifactToJson(const ReleaseArtifact& artifact);

/// Parses and validates an artifact document. Rejects unknown schema
/// versions with a message naming both versions.
util::Result<ReleaseArtifact> ReleaseArtifactFromJson(const std::string& json);

util::Status WriteReleaseArtifact(const ReleaseArtifact& artifact,
                                  const std::string& path);
util::Result<ReleaseArtifact> ReadReleaseArtifact(const std::string& path);

/// Resident-memory estimate of the artifact's parameters — the sizing hook
/// the serving layer's byte-budgeted engine cache charges admissions by
/// (together with ReleaseEngine::ApproxBytes, which adds the serving
/// state on top).
uint64_t EstimateArtifactBytes(const ReleaseArtifact& artifact);

/// Identity of the *release* (not just the config): a stable FNV-1a hash
/// of the canonical JSON serialization. The server's per-tenant epsilon
/// ledger charges each tenant once per release key, so re-loading or
/// re-sampling the same stored release never double-charges while a
/// different fit — even under the same config fingerprint — does.
uint64_t ReleaseArtifactReleaseKey(const ReleaseArtifact& artifact);

}  // namespace agmdp::pipeline
