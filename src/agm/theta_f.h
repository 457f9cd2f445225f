// Attribute-edge correlation distribution ΘF (Section 3.1, Appendix B/C).
//
// ΘF(y) is the fraction of edges whose endpoint-attribute pair encodes to y.
// Four differentially private estimators are provided:
//   * LearnCorrelationsDp       — edge truncation, Algorithm 4 (the paper's
//                                 choice; pure eps-DP, GS = 2k).
//   * LearnCorrelationsSmooth   — smooth sensitivity, Appendix B.1
//                                 ((eps, delta)-DP).
//   * LearnCorrelationsSampleAggregate — Appendix B.2 (pure eps-DP).
//   * LearnCorrelationsNaive    — Laplace with the raw GS = 2n - 2 (the
//                                 baseline of Figure 5).
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::agm {

/// Exact connection counts Q_F over the edges of g, length C(2^w + 1, 2).
std::vector<double> ComputeConnectionCounts(const graph::AttributedGraph& g);

/// Exact ΘF (normalized Q_F); uniform when the graph has no edges.
std::vector<double> ComputeThetaF(const graph::AttributedGraph& g);

/// Exact ΘF from already-tallied integer connection counts (the snapshot
/// path: graph/fused_eval.h tallies them): the cast integers match the
/// Graph path's +1.0-per-edge accumulation exactly, so the result is
/// bitwise-identical to ComputeThetaF on the same graph.
std::vector<double> ThetaFFromConnectionCounts(
    const std::vector<uint64_t>& counts, uint64_t num_edges);

/// Algorithm 4 (LearnCorrelationsDP): truncate to a k-bounded graph
/// (Definition 2), compute Q_F, add Laplace(2k / epsilon) (Proposition 1:
/// GS = 2k), clamp to [0, n], normalize. Satisfies epsilon-DP (Theorem 7).
/// k = 0 selects the paper's heuristic n^(1/3).
std::vector<double> LearnCorrelationsDp(const graph::AttributedGraph& g,
                                        double epsilon, uint32_t k,
                                        util::Rng& rng);

/// Appendix B.1: Q_F on the raw graph + Laplace(2 S / epsilon) where S is
/// the beta-smooth sensitivity (Corollary 5), beta = eps / (2 ln(1/delta)).
/// Satisfies (epsilon, delta)-DP.
std::vector<double> LearnCorrelationsSmooth(const graph::AttributedGraph& g,
                                            double epsilon, double delta,
                                            util::Rng& rng);

/// Appendix B.2: random node partition into groups of `group_size`, exact
/// ΘF on each induced subgraph (uniform for edgeless groups), average, add
/// Laplace((2 / t) / epsilon) with t the number of groups, clamp to [0, 1],
/// normalize. Satisfies epsilon-DP.
std::vector<double> LearnCorrelationsSampleAggregate(
    const graph::AttributedGraph& g, double epsilon, uint32_t group_size,
    util::Rng& rng);

/// Figure 5 baseline: Laplace with global sensitivity 2n - 2 on the raw
/// counts, clamp, normalize.
std::vector<double> LearnCorrelationsNaive(const graph::AttributedGraph& g,
                                           double epsilon, util::Rng& rng);

/// Section 7 preliminary experiment: edge truncation followed by Laplace
/// noise calibrated to a node-adjacency smooth-sensitivity bound
/// ((epsilon, delta)-DP; reconstruction — see smooth_sensitivity.h).
std::vector<double> LearnCorrelationsNodeDp(const graph::AttributedGraph& g,
                                            double epsilon, double delta,
                                            uint32_t k, util::Rng& rng);

}  // namespace agmdp::agm
