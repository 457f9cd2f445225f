// Clustering coefficient statistics (Section 5.1 of the paper).
//
// The Graph kernels serve fit, the generators and the test oracle; CSR
// snapshots get the whole family from one run of the fused analytics
// kernel (fused_eval.h), which finishes its per-node triangle counts
// through ClusteringStatsFromTriangles below. Every per-node coefficient
// is a pure function of integer triangle and degree counts, and the
// averages reduce sequentially in node order — so both paths agree
// bitwise at every thread count.
#pragma once

#include <vector>

#include "src/graph/csr.h"
#include "src/graph/graph.h"

namespace agmdp::graph {

/// Local clustering coefficient per node: C_i = 2 t_i / (d_i (d_i - 1)),
/// where t_i is the number of triangles through node i. Nodes of degree < 2
/// get C_i = 0 (the usual convention, also what CCDF plots assume).
std::vector<double> LocalClusteringCoefficients(const Graph& g);

/// Average of the local clustering coefficients, C̄ = (1/n) Σ C_i.
double AverageLocalClustering(const Graph& g);

/// Global clustering coefficient (transitivity): C = 3 n∆ / n_W. Returns 0
/// for wedge-free graphs.
double GlobalClusteringCoefficient(const Graph& g);

/// Degree-wise clustering profile c_d: the mean local clustering
/// coefficient over nodes of degree d, indexed by degree (length
/// MaxDegree + 1; degrees with no nodes get 0). This is the statistic the
/// BTER model is parameterized by (Section 3.3 discusses why that makes
/// BTER hard to release under DP).
std::vector<double> DegreeWiseClustering(const Graph& g);

/// \brief The whole triangle-derived statistic family from ONE set of
/// per-node triangle counts (the dominant analytics cost): the total is
/// the exact integer identity sum(per-node)/3, so every field matches the
/// Graph kernels above bit-for-bit.
struct ClusteringStats {
  std::vector<uint64_t> per_node_triangles;
  std::vector<double> local_coefficients;
  uint64_t triangles = 0;  // sum(per_node_triangles) / 3
  uint64_t wedges = 0;
  double avg_local_clustering = 0.0;  // C̄, 0 for empty graphs
  double global_clustering = 0.0;  // 3 n∆ / n_W, 0 for wedge-free graphs
};

/// Derives the full ClusteringStats bundle from already-computed per-node
/// triangle counts — the formula tail of the fused kernel, sharing its
/// formula bodies with the Graph kernels so the two paths cannot drift.
ClusteringStats ClusteringStatsFromTriangles(
    const CsrGraph& g, std::vector<uint64_t> per_node_triangles);

}  // namespace agmdp::graph
