// The AGM accept/reject sampling loop (Section 2.2 and Algorithm 3 lines
// 6-18), shared by the non-private and differentially private pipelines.
//
// Given parameters (ΘX, ΘF, structural parameters), the sampler draws
// attribute vectors i.i.d. from ΘX, generates a temporary edge set from the
// structural model, measures the attribute correlations Θ'F it produced,
// and derives per-configuration acceptance probabilities
//     A(y) = R(y) / sup R,   R(y) = ΘF(y) / Θ'F(y)  (optionally × A_old),
// which are then pushed *into* the structural model's own sampling loop as
// an edge filter (the paper's modification that makes rewiring models like
// TriCycLe compatible with AGM). The loop iterates until A converges.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/models/chung_lu.h"
#include "src/models/edge_filter.h"
#include "src/models/tricycle.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::util {
class WorkerPool;
}  // namespace agmdp::util

namespace agmdp::agm {

/// Which structural model M the AGM pipeline plugs in.
enum class StructuralModelKind { kFcl, kTriCycLe };

/// The fixed shard count of the sampler's parallel hot path (work is always
/// split into this many shards, never into `threads` shards — the
/// determinism contract).
inline constexpr int kSamplerProposalShards = 64;

/// Workers of a sampler pool sized for a `threads` request (<= 0 = the
/// available cores), capped at kSamplerProposalShards: more could never be
/// busy at once. Every pool-owning caller sizes its pool with this.
int SamplerPoolWorkers(int threads);

/// The three AGM parameter sets (plus w); ΘM is the degree sequence and —
/// for TriCycLe — the triangle count.
struct AgmParams {
  int w = 0;
  std::vector<double> theta_x;            // |Y_w|
  std::vector<double> theta_f;            // |Y^F_w|
  std::vector<uint32_t> degree_sequence;  // length n
  uint64_t target_triangles = 0;          // used by TriCycLe only
};

/// Exact (non-private) parameter estimation — the AGM-FCL / AGM-TriCL
/// baselines of Tables 2-5.
AgmParams LearnAgmParams(const graph::AttributedGraph& g);

/// Structural validation of a parameter set: w in [0, 16] (beyond that the
/// triangular edge-config count overflows uint32), theta dimensions
/// consistent with w, every theta entry finite and non-negative, a
/// non-empty degree sequence. The "agm" mechanism's artifact rule, so
/// garbage parameters are rejected at every artifact read boundary instead
/// of propagating into the sampler.
util::Status ValidateAgmParams(const AgmParams& params);

/// Pluggable structural-model hook: given the (private) AGM parameters and
/// the attribute-acceptance filter, generate an edge set. Used by the
/// pipeline's model registry to plug models beyond the two builtins into
/// the AGM loop without this layer knowing about them.
using StructuralGenerator = std::function<util::Result<graph::Graph>(
    const AgmParams& params, const models::EdgeFilter& filter,
    util::Rng& rng)>;

struct AgmSampleOptions {
  StructuralModelKind model = StructuralModelKind::kTriCycLe;
  /// Overrides `model` when set (registry-provided structural models).
  StructuralGenerator generator;
  /// Worker threads for the sampler hot path (sharded FCL edge proposals
  /// and Θ'F measurement). 0 = the available cores. SampleAgmGraph spawns
  /// one persistent util::WorkerPool per call and reuses it across every
  /// acceptance iteration. The output graph is bitwise-identical for a
  /// given seed at any thread count: the work is split into a fixed number
  /// of shards with deterministic per-shard sub-streams
  /// (util::Rng::Substream), and shard results are merged in shard order —
  /// threads only change the schedule, never the stream.
  int threads = 1;
  /// Acceptance-probability refinement iterations ("A tended to converge
  /// after just a few iterations", Section 4).
  int acceptance_iterations = 3;
  /// Early-exit when max |A - A_old| drops below this.
  double acceptance_tolerance = 0.01;
  /// Floor for acceptance probabilities of configurations with positive
  /// target mass (prevents live-locking the proposal loops; deviation
  /// documented in DESIGN.md).
  double min_acceptance = 1e-3;
  /// Borrowed worker pool for the sampler hot path. When null (the
  /// default) SampleAgmGraph spawns its own pool per call; the serving
  /// layer (pipeline::ReleaseEngine) passes its persistent pool instead so
  /// repeated sampling pays zero thread-spawn cost. The pool never affects
  /// output (see the determinism notes on `threads`), and `threads` is
  /// ignored when a pool is supplied.
  util::WorkerPool* pool = nullptr;
  /// Warm-start acceptance vector A (size NumEdgeConfigs(w)). When set, the
  /// first structural generation is already filtered by it and the
  /// refinement loop starts from it as A_old — the serving layer passes the
  /// acceptance vector a calibration sample converged to, so steady-state
  /// samples skip the cold iterations. Null reproduces the paper's cold
  /// start (unfiltered first generation).
  const std::vector<double>* initial_acceptance = nullptr;
  /// When non-null, receives the final acceptance vector of this sample —
  /// what a warm start of the next sample should pass as
  /// `initial_acceptance`. With zero iterations this is the warm-start
  /// vector passed straight through (so chained warm starts keep their
  /// calibration); it is empty only on a cold start where no iteration
  /// ran.
  std::vector<double>* final_acceptance = nullptr;
  models::TriCycLeOptions tricycle;
  models::ChungLuOptions fcl;
};

/// Runs the sampling loop and returns the synthetic attributed graph.
util::Result<graph::AttributedGraph> SampleAgmGraph(
    const AgmParams& params, const AgmSampleOptions& options, util::Rng& rng);

/// Builds the acceptance vector A from target ΘF, observed Θ'F and the
/// previous A (pass empty for none). Exposed for unit testing.
std::vector<double> ComputeAcceptanceProbabilities(
    const std::vector<double>& theta_f_target,
    const std::vector<double>& theta_f_observed,
    const std::vector<double>& a_old, double min_acceptance);

/// Θ'F measured over `threads` workers (node-range partition; exact integer
/// counts, so the result is identical at any thread count). Equals
/// ComputeThetaF(g) and is exposed so benches can time the parallel path.
std::vector<double> MeasureThetaF(const graph::AttributedGraph& g,
                                  int threads);

}  // namespace agmdp::agm
