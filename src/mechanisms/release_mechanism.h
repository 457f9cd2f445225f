// The release-mechanism registry: every private-graph publication scheme —
// the paper's AGM pipeline and the competing schemes — behind one
// artifact/accounting contract. It is the only place that maps a
// mechanism tag to a way of fitting, validating and serving.
//
// A MechanismSpec is (name, privacy model, fit, validate, make_sampler):
//
//   * fit reads the sensitive input exactly once and returns a
//     mechanism-tagged pipeline::ReleaseArtifact. DP mechanisms charge
//     every stage through one dp::PrivacyAccountant, so the artifact's
//     ledger sums to the global epsilon; syntactic mechanisms
//     (kanon_baseline) carry a zero-spend ledger.
//   * validate holds the mechanism's own artifact rules: the shape and
//     values of `params` and `payload`, plus any ledger rule the privacy
//     model implies (kanon_baseline: zero spend). The tag-agnostic checks
//     — schema version, registered tag, ledger/epsilon consistency,
//     acceptance knobs — run first in pipeline::ValidateReleaseArtifact,
//     which then calls this.
//   * make_sampler turns a validated artifact into the ArtifactSampler
//     pipeline::ReleaseEngine serves every request through. Sampling is
//     pure post-processing (Theorem 2): repeatable at zero additional
//     privacy cost.
//
// Determinism contract: ArtifactSampler::Sample draws exclusively from the
// caller's Rng and shared immutable state, so ReleaseEngine's request
// keying (Substream(seed, sequence)) makes every mechanism's output
// bitwise-identical at any thread count.
//
// The registry mirrors pipeline's structural-model registry: a static
// spec table, FindMechanism by tag, and name listings for error messages.
// Every read boundary (PipelineConfig::Validate, ValidateReleaseArtifact
// and so ReleaseArtifactFromJson and ReleaseEngine::Create) rejects a tag
// FindMechanism does not know. To add a scheme: implement fit, validate
// and make_sampler, and append a spec in release_mechanism.cc.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/pipeline/pipeline_config.h"
#include "src/pipeline/release_artifact.h"
#include "src/pipeline/release_engine.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::mechanisms {

// The declared privacy model of a release mechanism. Edge-DP and node-DP
// mechanisms spend epsilon through the PrivacyAccountant; syntactic
// mechanisms (k-anonymity / t-closeness) carry an epsilon-free ledger and
// must assert zero spend at validation.
enum class PrivacyModel {
  kEdgeDp,
  kNodeDp,
  kSyntactic,
};

const char* PrivacyModelName(PrivacyModel model);

/// \brief Serving handle of a fitted artifact: draws one synthetic graph
/// per call from the caller's stream. Implementations are immutable after
/// construction, so const Sample calls are thread-safe.
class ArtifactSampler {
 public:
  virtual ~ArtifactSampler() = default;

  /// Draws one synthetic graph. All randomness comes from `rng`; equal
  /// streams give bitwise-equal graphs. `refine_iterations` is the
  /// acceptance refinement count (-1 = the engine default) and `pool` the
  /// workers one sample may use (null = run inline on the calling
  /// thread); mechanisms without an acceptance loop or intra-sample
  /// parallelism ignore them. Neither changes the bits.
  virtual util::Result<graph::AttributedGraph> Sample(
      util::Rng& rng, int refine_iterations,
      util::WorkerPool* pool) const = 0;

  /// Resident-byte estimate of the serving state beyond the artifact
  /// itself (see ReleaseEngine::ApproxBytes).
  virtual uint64_t ApproxBytes() const = 0;
};

/// \brief One registered release mechanism.
struct MechanismSpec {
  std::string name;
  std::string description;
  PrivacyModel privacy_model = PrivacyModel::kEdgeDp;
  /// Fits the artifact. When `stage_seconds` is non-null a mechanism may
  /// append its per-stage fit timings there (AGM does; the others leave it
  /// empty and are timed as one "fit" stage).
  std::function<util::Result<pipeline::ReleaseArtifact>(
      const graph::AttributedGraph& input,
      const pipeline::PipelineConfig& config, util::Rng& rng,
      std::vector<agm::StageSeconds>* stage_seconds)>
      fit;
  /// The mechanism's artifact rules (see the file comment); a typed
  /// InvalidArgument on violation. Called by ValidateReleaseArtifact only
  /// after the tag-agnostic checks passed.
  std::function<util::Status(const pipeline::ReleaseArtifact& artifact)>
      validate;
  /// Builds the serving handle of a validated artifact under the engine's
  /// options; `pool` is the engine's pool (AGM calibrates on it). The
  /// sampler may read `artifact` for its whole lifetime — the engine owns
  /// both.
  std::function<util::Result<std::unique_ptr<const ArtifactSampler>>(
      const pipeline::ReleaseArtifact& artifact,
      const pipeline::EngineOptions& options, util::WorkerPool* pool)>
      make_sampler;
};

/// Looks a mechanism up by tag; nullptr when unregistered.
const MechanismSpec* FindMechanism(const std::string& name);

/// Registered tags, in registration order.
std::vector<std::string> MechanismNames();

/// "agm, community_dp, kanon_baseline" — for error messages.
std::string MechanismNameList();

/// The block-model payload checks community_dp and kanon_baseline share:
/// num_blocks >= 1, every node_blocks entry in range, 0 <= w <= 20, and a
/// num_blocks x 2^w `block_attr` whose entries are finite and non-negative
/// with positive mass in every row (each row is alias-sampled). `tag`
/// prefixes the error messages.
util::Status ValidateBlockPayload(const std::string& tag,
                                  const pipeline::ReleaseArtifact& artifact);

}  // namespace agmdp::mechanisms
