#include "src/graph/clustering.h"

#include <utility>

#include "src/graph/triangle_count.h"

namespace agmdp::graph {

namespace {

// Shared formula bodies: the Graph kernels and the fused kernel's CsrGraph
// tail must stay bitwise-identical (DESIGN.md snapshot contract), so each
// formula exists exactly once, templated over the representation.

template <typename AnyGraph>
std::vector<double> CoefficientsFromTriangles(
    const AnyGraph& g, const std::vector<uint64_t>& triangles) {
  std::vector<double> coeffs(g.num_nodes(), 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    uint64_t d = g.Degree(v);
    if (d >= 2) {
      coeffs[v] = 2.0 * static_cast<double>(triangles[v]) /
                  (static_cast<double>(d) * static_cast<double>(d - 1));
    }
  }
  return coeffs;
}

double MeanCoefficient(const std::vector<double>& coeffs) {
  if (coeffs.empty()) return 0.0;
  double sum = 0.0;
  for (double c : coeffs) sum += c;
  return sum / static_cast<double>(coeffs.size());
}

double GlobalFromCounts(uint64_t triangles, uint64_t wedges) {
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(triangles) / static_cast<double>(wedges);
}

}  // namespace

std::vector<double> LocalClusteringCoefficients(const Graph& g) {
  return CoefficientsFromTriangles(g, PerNodeTriangles(g));
}

double AverageLocalClustering(const Graph& g) {
  return MeanCoefficient(LocalClusteringCoefficients(g));
}

double GlobalClusteringCoefficient(const Graph& g) {
  return GlobalFromCounts(CountTriangles(g), CountWedges(g));
}

std::vector<double> DegreeWiseClustering(const Graph& g) {
  const std::vector<double> coeffs = LocalClusteringCoefficients(g);
  std::vector<double> sum(g.MaxDegree() + 1, 0.0);
  std::vector<uint64_t> count(g.MaxDegree() + 1, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    sum[g.Degree(v)] += coeffs[v];
    ++count[g.Degree(v)];
  }
  for (size_t d = 0; d < sum.size(); ++d) {
    if (count[d] > 0) sum[d] /= static_cast<double>(count[d]);
  }
  return sum;
}

ClusteringStats ClusteringStatsFromTriangles(
    const CsrGraph& g, std::vector<uint64_t> per_node_triangles) {
  ClusteringStats stats;
  stats.per_node_triangles = std::move(per_node_triangles);
  stats.local_coefficients =
      CoefficientsFromTriangles(g, stats.per_node_triangles);
  uint64_t corner_sum = 0;
  for (uint64_t t : stats.per_node_triangles) corner_sum += t;
  stats.triangles = corner_sum / 3;  // each triangle has three corners
  stats.wedges = CountWedges(g);
  stats.avg_local_clustering = MeanCoefficient(stats.local_coefficients);
  stats.global_clustering = GlobalFromCounts(stats.triangles, stats.wedges);
  return stats;
}

}  // namespace agmdp::graph
