#include "src/agm/theta_f.h"

#include "src/dp/edge_truncation.h"
#include "src/dp/laplace_mechanism.h"
#include "src/dp/sample_aggregate.h"
#include "src/dp/smooth_sensitivity.h"
#include "src/graph/components.h"
#include "src/util/check.h"

namespace agmdp::agm {

std::vector<double> ComputeConnectionCounts(const graph::AttributedGraph& g) {
  const int w = g.num_attributes();
  std::vector<double> counts(graph::NumEdgeConfigs(w), 0.0);
  g.structure().ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    counts[graph::EncodeEdgeConfig(g.attribute(u), g.attribute(v), w)] += 1.0;
  });
  return counts;
}

std::vector<double> ComputeThetaF(const graph::AttributedGraph& g) {
  std::vector<double> counts = ComputeConnectionCounts(g);
  // Edgeless graphs normalize to uniform inside ClampAndNormalize.
  return dp::ClampAndNormalize(std::move(counts), 0.0,
                               static_cast<double>(g.num_edges() + 1));
}

std::vector<double> ThetaFFromConnectionCounts(
    const std::vector<uint64_t>& counts, uint64_t num_edges) {
  std::vector<double> as_doubles(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    as_doubles[i] = static_cast<double>(counts[i]);
  }
  return dp::ClampAndNormalize(std::move(as_doubles), 0.0,
                               static_cast<double>(num_edges + 1));
}

std::vector<double> LearnCorrelationsDp(const graph::AttributedGraph& g,
                                        double epsilon, uint32_t k,
                                        util::Rng& rng) {
  AGMDP_CHECK(epsilon > 0.0);
  if (k == 0) k = dp::HeuristicTruncationK(g.num_nodes());
  const graph::AttributedGraph truncated = dp::TruncateEdges(g, k);
  std::vector<double> counts = ComputeConnectionCounts(truncated);
  std::vector<double> noisy =
      dp::NoisyCounts(counts, /*sensitivity=*/2.0 * k, epsilon, rng);
  return dp::ClampAndNormalize(std::move(noisy), 0.0,
                               static_cast<double>(g.num_nodes()));
}

std::vector<double> LearnCorrelationsSmooth(const graph::AttributedGraph& g,
                                            double epsilon, double delta,
                                            util::Rng& rng) {
  AGMDP_CHECK(epsilon > 0.0);
  std::vector<double> counts = ComputeConnectionCounts(g);
  // Lap(2 S / eps) == Laplace mechanism with sensitivity 2 S.
  const double scale = dp::SmoothLaplaceScaleQF(g.structure(), epsilon, delta);
  std::vector<double> noisy(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    noisy[i] = counts[i] + rng.Laplace(scale);
  }
  return dp::ClampAndNormalize(std::move(noisy), 0.0,
                               static_cast<double>(g.num_nodes()));
}

std::vector<double> LearnCorrelationsSampleAggregate(
    const graph::AttributedGraph& g, double epsilon, uint32_t group_size,
    util::Rng& rng) {
  AGMDP_CHECK(epsilon > 0.0);
  const graph::NodeId n = g.num_nodes();
  auto partition = dp::RandomNodePartition(n, group_size, rng);
  AGMDP_CHECK_MSG(partition.ok(), "invalid sample-and-aggregate group size");

  std::vector<std::vector<double>> per_group;
  per_group.reserve(partition.value().size());
  for (const auto& group : partition.value()) {
    graph::AttributedGraph sub = graph::InducedSubgraph(g, group);
    per_group.push_back(ComputeThetaF(sub));  // uniform if edgeless
  }
  auto mean = dp::AverageVectors(per_group);
  AGMDP_CHECK(mean.ok());

  const double t = static_cast<double>(per_group.size());
  std::vector<double> noisy =
      dp::NoisyCounts(mean.value(), /*sensitivity=*/2.0 / t, epsilon, rng);
  return dp::ClampAndNormalize(std::move(noisy), 0.0, 1.0);
}

std::vector<double> LearnCorrelationsNaive(const graph::AttributedGraph& g,
                                           double epsilon, util::Rng& rng) {
  AGMDP_CHECK(epsilon > 0.0);
  std::vector<double> counts = ComputeConnectionCounts(g);
  const double sensitivity = 2.0 * static_cast<double>(g.num_nodes()) - 2.0;
  std::vector<double> noisy = dp::NoisyCounts(counts, sensitivity, epsilon,
                                              rng);
  return dp::ClampAndNormalize(std::move(noisy), 0.0,
                               static_cast<double>(g.num_nodes()));
}

std::vector<double> LearnCorrelationsNodeDp(const graph::AttributedGraph& g,
                                            double epsilon, double delta,
                                            uint32_t k, util::Rng& rng) {
  AGMDP_CHECK(epsilon > 0.0);
  if (k == 0) k = dp::HeuristicTruncationK(g.num_nodes());
  const graph::AttributedGraph truncated = dp::TruncateEdges(g, k);
  std::vector<double> counts = ComputeConnectionCounts(truncated);
  const double scale = dp::NodeDpSmoothLaplaceScaleQF(
      g.structure().MaxDegree(), k, g.num_nodes(), epsilon, delta);
  std::vector<double> noisy(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    noisy[i] = counts[i] + rng.Laplace(scale);
  }
  return dp::ClampAndNormalize(std::move(noisy), 0.0,
                               static_cast<double>(g.num_nodes()));
}

}  // namespace agmdp::agm
