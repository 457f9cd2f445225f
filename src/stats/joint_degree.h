// dK-2 series: the joint degree distribution, i.e. the distribution over
// the unordered degree pairs observed on edges. This is the statistic the
// Pygmalion / dK-graph line of related work (Sala et al.) models directly;
// here it serves as another held-out fidelity metric for synthetic graphs
// (AGM-DP never optimizes it).
// Both representations run one serial body over the canonical edges, so
// the Graph and CsrGraph overloads agree exactly.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "src/graph/csr.h"
#include "src/graph/graph.h"

namespace agmdp::stats {

/// Probability mass per unordered degree pair (d_min, d_max) over edges.
/// Empty for edgeless graphs.
std::map<std::pair<uint32_t, uint32_t>, double> JointDegreeDistribution(
    const graph::Graph& g);
std::map<std::pair<uint32_t, uint32_t>, double> JointDegreeDistribution(
    const graph::CsrGraph& g);

/// Hellinger distance between the dK-2 series of two graphs (union of
/// supports; in [0, 1]).
double JointDegreeDistance(const graph::Graph& a, const graph::Graph& b);
double JointDegreeDistance(const graph::CsrGraph& a, const graph::CsrGraph& b);

}  // namespace agmdp::stats
