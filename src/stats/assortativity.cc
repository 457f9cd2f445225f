#include "src/stats/assortativity.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace agmdp::stats {

namespace {

// Shared tail of DegreeAssortativity and the fused finalizer: Pearson
// correlation over the 2m ordered endpoint pairs from the three sums.
double PearsonFromSums(double sum_xy, double sum_x, double sum_x2,
                       uint64_t num_edges) {
  const double count = 2.0 * static_cast<double>(num_edges);
  const double mean = sum_x / count;
  const double var = sum_x2 / count - mean * mean;
  if (var <= 0.0) return 0.0;
  const double cov = sum_xy / count - mean * mean;
  return cov / var;
}

// Shared tail of AttributeAssortativity and the fused finalizer: Newman's
// coefficient from the integer-valued (exact) mixing tallies over ordered
// endpoints.
double NewmanFromMixing(const std::vector<double>& mixing, uint32_t k) {
  double trace = 0.0, squared = 0.0;
  for (uint32_t a = 0; a < k; ++a) {
    trace += mixing[static_cast<size_t>(a) * k + a];
    // (e^2)_aa summed over a = sum over a,b of e_ab * e_ba; e is symmetric.
    for (uint32_t b = 0; b < k; ++b) {
      const double e_ab = mixing[static_cast<size_t>(a) * k + b];
      squared += e_ab * e_ab;
    }
  }
  if (1.0 - squared <= 1e-12) return 0.0;  // single category: undefined -> 0
  return (trace - squared) / (1.0 - squared);
}

}  // namespace

double DegreeAssortativityFromSums(double sum_xy, double sum_x,
                                   double sum_x2, uint64_t num_edges) {
  if (num_edges == 0) return 0.0;
  return PearsonFromSums(sum_xy, sum_x, sum_x2, num_edges);
}

double AttributeAssortativityFromMixingCounts(
    const std::vector<uint64_t>& counts, uint32_t k, uint64_t num_edges) {
  if (num_edges == 0) return 0.0;
  const double total = 2.0 * static_cast<double>(num_edges);
  std::vector<double> mixing(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    mixing[i] = static_cast<double>(counts[i]) / total;
  }
  return NewmanFromMixing(mixing, k);
}

std::vector<double> PerAttributeHomophilyFromCounts(
    const std::vector<uint64_t>& counts, uint64_t num_edges) {
  std::vector<double> same(counts.size(), 0.0);
  if (num_edges == 0) return same;
  const double m = static_cast<double>(num_edges);
  for (size_t a = 0; a < counts.size(); ++a) {
    same[a] = static_cast<double>(counts[a]) / m;
  }
  return same;
}

double DegreeAssortativity(const graph::Graph& g) {
  if (g.num_edges() == 0) return 0.0;
  const graph::NodeId n = g.num_nodes();
  // Summation contract (see header): per-source-node partials over sorted
  // forward neighbors, reduced in node order.
  double sum_xy = 0.0, sum_x = 0.0, sum_x2 = 0.0;
  std::vector<graph::NodeId> forward;
  for (graph::NodeId u = 0; u < n; ++u) {
    forward.clear();
    for (graph::NodeId v : g.Neighbors(u)) {
      if (v > u) forward.push_back(v);
    }
    std::sort(forward.begin(), forward.end());
    const double du = g.Degree(u);
    double pxy = 0.0, px = 0.0, px2 = 0.0;
    for (graph::NodeId v : forward) {
      const double dv = g.Degree(v);
      pxy += 2.0 * du * dv;
      px += du + dv;
      px2 += du * du + dv * dv;
    }
    sum_xy += pxy;
    sum_x += px;
    sum_x2 += px2;
  }
  return PearsonFromSums(sum_xy, sum_x, sum_x2, g.num_edges());
}

double AttributeAssortativity(const graph::AttributedGraph& g) {
  if (g.num_edges() == 0) return 0.0;
  const uint32_t k = graph::NumNodeConfigs(g.num_attributes());
  // Mixing matrix e[a][b]: fraction of (ordered) edge endpoints with
  // configurations a and b. The tallies are integer-valued, hence exact.
  std::vector<double> mixing(static_cast<size_t>(k) * k, 0.0);
  g.structure().ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    const graph::AttrConfig a = g.attribute(u), b = g.attribute(v);
    mixing[static_cast<size_t>(a) * k + b] += 1.0;
    mixing[static_cast<size_t>(b) * k + a] += 1.0;
  });
  const double total = 2.0 * static_cast<double>(g.num_edges());
  for (double& x : mixing) x /= total;
  return NewmanFromMixing(mixing, k);
}

std::vector<double> PerAttributeHomophily(const graph::AttributedGraph& g) {
  std::vector<double> same(static_cast<size_t>(g.num_attributes()), 0.0);
  if (g.num_edges() == 0 || g.num_attributes() == 0) return same;
  g.structure().ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    const graph::AttrConfig agree = ~(g.attribute(u) ^ g.attribute(v));
    for (int a = 0; a < g.num_attributes(); ++a) {
      if ((agree >> a) & 1u) same[static_cast<size_t>(a)] += 1.0;
    }
  });
  const double m = static_cast<double>(g.num_edges());
  for (double& x : same) x /= m;
  return same;
}

}  // namespace agmdp::stats
