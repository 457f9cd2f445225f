#include "src/eval/utility_report.h"

#include <algorithm>
#include <cmath>

#include "src/agm/theta_f.h"
#include "src/graph/clustering.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/fused_eval.h"
#include "src/graph/paths.h"
#include "src/graph/triangle_count.h"
#include "src/stats/assortativity.h"
#include "src/stats/ccdf.h"
#include "src/stats/metrics.h"

namespace agmdp::eval {

namespace {

// Shared body for both representations (graph::DegreeSequence has matching
// overloads), so the two CCDF paths cannot drift apart.
template <typename AnyGraph>
std::vector<double> DegreesAsDoubles(const AnyGraph& g) {
  std::vector<double> out;
  out.reserve(g.num_nodes());
  for (uint32_t d : graph::DegreeSequence(g)) {
    out.push_back(static_cast<double>(d));
  }
  return out;
}

// Serves only the frozen *Legacy reference path; the production path reads
// the mean off graph::ClusteringStats (same chain, same values).
double MeanOf(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// The ascending expansion of a degree histogram IS the sorted degree
// sequence, recovered without the O(n log n) sort.
std::vector<uint32_t> SortedDegreesFromHistogram(
    const std::vector<uint64_t>& hist) {
  std::vector<uint32_t> sorted;
  uint64_t total = 0;
  for (uint64_t c : hist) total += c;
  sorted.reserve(total);
  for (size_t d = 0; d < hist.size(); ++d) {
    sorted.insert(sorted.end(), hist[d], static_cast<uint32_t>(d));
  }
  return sorted;
}

std::vector<double> SortedCopy(const std::vector<double>& values) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

std::vector<std::pair<std::string, double>> UtilityReport::Flatten() const {
  std::vector<std::pair<std::string, double>> flat = {
      {"theta_f_mae", errors.theta_f_mae},
      {"theta_f_hellinger", errors.theta_f_hellinger},
      {"degree_ks", errors.degree_ks},
      {"degree_hellinger", errors.degree_hellinger},
      {"degree_kl", degree_kl},
      {"degree_ccdf_distance", degree_ccdf_distance},
      {"clustering_ccdf_distance", clustering_ccdf_distance},
      {"triangles_re", errors.triangles_re},
      {"avg_clustering_re", errors.avg_clustering_re},
      {"global_clustering_re", errors.global_clustering_re},
      {"edges_re", errors.edges_re},
      {"degree_assortativity_delta", degree_assortativity_delta},
      {"attribute_assortativity_delta", attribute_assortativity_delta},
  };
  double abs_sum = 0.0;
  for (size_t a = 0; a < homophily_delta.size(); ++a) {
    flat.emplace_back("homophily_delta_a" + std::to_string(a),
                      homophily_delta[a]);
    abs_sum += std::fabs(homophily_delta[a]);
  }
  flat.emplace_back("homophily_delta_mean_abs",
                    homophily_delta.empty()
                        ? 0.0
                        : abs_sum / static_cast<double>(
                                        homophily_delta.size()));
  return flat;
}

ReferenceProfile ProfileReference(const graph::AttributedGraph& original,
                                  int analytics_threads) {
  return ProfileReference(graph::AttributedCsrGraph::FromGraph(original),
                          analytics_threads);
}

ReferenceProfile ProfileReference(const graph::AttributedCsrGraph& original,
                                  int analytics_threads) {
  ReferenceProfile ref;
  graph::FusedOptions opts;
  opts.threads = analytics_threads;
  graph::FusedStats fused = graph::FusedEvaluate(original, opts);
  ref.theta_f = agm::ThetaFFromConnectionCounts(fused.connection_counts,
                                                fused.num_edges);
  ref.sorted_degrees = SortedDegreesFromHistogram(fused.degree_histogram);
  ref.degree_distribution = stats::DegreeDistributionFromHistogram(
      fused.degree_histogram, fused.num_nodes);
  ref.local_clustering = std::move(fused.clustering.local_coefficients);
  ref.sorted_local_clustering = SortedCopy(ref.local_clustering);
  ref.avg_clustering = fused.clustering.avg_local_clustering;
  ref.global_clustering = fused.clustering.global_clustering;
  ref.triangles = static_cast<double>(fused.clustering.triangles);
  ref.edges = static_cast<double>(fused.num_edges);
  ref.degree_assortativity = stats::DegreeAssortativityFromSums(
      fused.assort_sum_xy, fused.assort_sum_x, fused.assort_sum_x2,
      fused.num_edges);
  ref.attribute_assortativity = stats::AttributeAssortativityFromMixingCounts(
      fused.mixing_counts, fused.num_configs, fused.num_edges);
  ref.homophily = stats::PerAttributeHomophilyFromCounts(
      fused.homophily_counts, fused.num_edges);
  ref.degree_histogram = std::move(fused.degree_histogram);
  return ref;
}

ReferenceProfile ProfileReferenceLegacy(
    const graph::AttributedGraph& original) {
  ReferenceProfile ref;
  const graph::Graph& g = original.structure();
  ref.theta_f = agm::ComputeThetaF(original);
  ref.sorted_degrees = graph::SortedDegreeSequence(g);
  ref.degree_distribution = stats::DegreeDistribution(g);
  ref.local_clustering = graph::LocalClusteringCoefficients(g);
  ref.avg_clustering = MeanOf(ref.local_clustering);
  ref.global_clustering = graph::GlobalClusteringCoefficient(g);
  ref.triangles = static_cast<double>(graph::CountTriangles(g));
  ref.edges = static_cast<double>(g.num_edges());
  ref.degree_assortativity = stats::DegreeAssortativity(g);
  ref.attribute_assortativity = stats::AttributeAssortativity(original);
  ref.homophily = stats::PerAttributeHomophily(original);
  ref.degree_histogram = graph::DegreeHistogram(g);
  ref.sorted_local_clustering = SortedCopy(ref.local_clustering);
  return ref;
}

UtilityReport EvaluateRelease(const ReferenceProfile& original,
                              const graph::AttributedGraph& released,
                              int analytics_threads) {
  return EvaluateRelease(original,
                         graph::AttributedCsrGraph::FromGraph(released),
                         analytics_threads);
}

UtilityReport EvaluateRelease(const ReferenceProfile& original,
                              const graph::AttributedCsrGraph& released,
                              int analytics_threads) {
  UtilityReport report;
  graph::FusedOptions opts;
  opts.threads = analytics_threads;
  const graph::FusedStats fused = graph::FusedEvaluate(released, opts);

  const ThetaFError theta = CompareThetaF(
      agm::ThetaFFromConnectionCounts(fused.connection_counts,
                                      fused.num_edges),
      original.theta_f);
  report.errors.theta_f_mae = theta.mae;
  report.errors.theta_f_hellinger = theta.hellinger;

  report.errors.degree_ks = stats::KsStatisticFromHistograms(
      fused.degree_histogram, original.degree_histogram);
  const std::vector<double> dist1 = stats::DegreeDistributionFromHistogram(
      fused.degree_histogram, fused.num_nodes);
  report.errors.degree_hellinger =
      stats::HellingerDistance(dist1, original.degree_distribution);
  report.degree_kl = stats::KlDivergence(original.degree_distribution, dist1);
  // sup |F1-F2| over degrees == sup |CCDF1-CCDF2|: reuse the KS statistic.
  report.degree_ccdf_distance = report.errors.degree_ks;

  // The reference side is presorted in the profile; only the released
  // side's coefficients need one sort.
  report.clustering_ccdf_distance = stats::KsDistanceSorted(
      original.sorted_local_clustering,
      SortedCopy(fused.clustering.local_coefficients));
  report.errors.avg_clustering_re = stats::RelativeError(
      fused.clustering.avg_local_clustering, original.avg_clustering);
  report.errors.global_clustering_re = stats::RelativeError(
      fused.clustering.global_clustering, original.global_clustering);

  report.errors.triangles_re = stats::RelativeError(
      static_cast<double>(fused.clustering.triangles), original.triangles);
  report.errors.edges_re = stats::RelativeError(
      static_cast<double>(fused.num_edges), original.edges);

  report.degree_assortativity_delta =
      stats::DegreeAssortativityFromSums(fused.assort_sum_xy,
                                         fused.assort_sum_x,
                                         fused.assort_sum_x2,
                                         fused.num_edges) -
      original.degree_assortativity;
  report.attribute_assortativity_delta =
      stats::AttributeAssortativityFromMixingCounts(
          fused.mixing_counts, fused.num_configs, fused.num_edges) -
      original.attribute_assortativity;

  const std::vector<double> h1 = stats::PerAttributeHomophilyFromCounts(
      fused.homophily_counts, fused.num_edges);
  const size_t w = std::min(original.homophily.size(), h1.size());
  report.homophily_delta.resize(w);
  for (size_t a = 0; a < w; ++a) {
    report.homophily_delta[a] = h1[a] - original.homophily[a];
  }
  return report;
}

UtilityReport EvaluateReleaseLegacy(const ReferenceProfile& original,
                                    const graph::AttributedGraph& released) {
  UtilityReport report;
  const graph::Graph& g1 = released.structure();

  const ThetaFError theta =
      CompareThetaF(agm::ComputeThetaF(released), original.theta_f);
  report.errors.theta_f_mae = theta.mae;
  report.errors.theta_f_hellinger = theta.hellinger;

  report.errors.degree_ks = stats::KsStatistic(
      graph::SortedDegreeSequence(g1), original.sorted_degrees);
  const std::vector<double> dist1 = stats::DegreeDistribution(g1);
  report.errors.degree_hellinger =
      stats::HellingerDistance(dist1, original.degree_distribution);
  report.degree_kl =
      stats::KlDivergence(original.degree_distribution, dist1);
  // sup |F1-F2| over degrees == sup |CCDF1-CCDF2|: reuse the KS statistic.
  report.degree_ccdf_distance = report.errors.degree_ks;

  const std::vector<double> cc1 = graph::LocalClusteringCoefficients(g1);
  report.clustering_ccdf_distance =
      stats::KsDistance(original.local_clustering, cc1);
  report.errors.avg_clustering_re =
      stats::RelativeError(MeanOf(cc1), original.avg_clustering);
  report.errors.global_clustering_re = stats::RelativeError(
      graph::GlobalClusteringCoefficient(g1), original.global_clustering);

  report.errors.triangles_re = stats::RelativeError(
      static_cast<double>(graph::CountTriangles(g1)), original.triangles);
  report.errors.edges_re = stats::RelativeError(
      static_cast<double>(g1.num_edges()), original.edges);

  report.degree_assortativity_delta =
      stats::DegreeAssortativity(g1) - original.degree_assortativity;
  report.attribute_assortativity_delta =
      stats::AttributeAssortativity(released) -
      original.attribute_assortativity;

  const std::vector<double> h1 = stats::PerAttributeHomophily(released);
  const size_t w = std::min(original.homophily.size(), h1.size());
  report.homophily_delta.resize(w);
  for (size_t a = 0; a < w; ++a) {
    report.homophily_delta[a] = h1[a] - original.homophily[a];
  }
  return report;
}

UtilityReport EvaluateRelease(const graph::AttributedGraph& original,
                              const graph::AttributedGraph& released) {
  return EvaluateRelease(ProfileReference(original), released);
}

ThetaFError CompareThetaF(std::vector<double> estimate,
                          std::vector<double> exact) {
  const size_t len = std::max(estimate.size(), exact.size());
  estimate.resize(len, 0.0);
  exact.resize(len, 0.0);
  ThetaFError e;
  e.mae = stats::MeanAbsoluteError(estimate, exact);
  e.hellinger = stats::HellingerDistance(estimate, exact);
  return e;
}

StructuralProfile ProfileGraph(const graph::AttributedGraph& g,
                               uint32_t path_samples, util::Rng& rng,
                               int analytics_threads) {
  return ProfileGraph(graph::AttributedCsrGraph::FromGraph(g), path_samples,
                      rng, analytics_threads);
}

StructuralProfile ProfileGraph(const graph::AttributedCsrGraph& g,
                               uint32_t path_samples, util::Rng& rng,
                               int analytics_threads) {
  StructuralProfile profile;
  if (path_samples > 0) {
    const graph::PathStats paths =
        graph::EstimatePathStats(g.structure, path_samples, rng);
    profile.avg_path_length = paths.avg_path_length;
    profile.effective_diameter = paths.effective_diameter;
    profile.diameter_lower_bound = paths.diameter_lower_bound;
  }
  // One fused edge sweep covers all three families; the triangle sweep is
  // skipped since no clustering statistic is reported here.
  graph::FusedOptions opts;
  opts.threads = analytics_threads;
  opts.triangles = false;
  const graph::FusedStats fused = graph::FusedEvaluate(g, opts);
  profile.degree_assortativity = stats::DegreeAssortativityFromSums(
      fused.assort_sum_xy, fused.assort_sum_x, fused.assort_sum_x2,
      fused.num_edges);
  profile.attribute_assortativity =
      stats::AttributeAssortativityFromMixingCounts(
          fused.mixing_counts, fused.num_configs, fused.num_edges);
  profile.homophily = stats::PerAttributeHomophilyFromCounts(
      fused.homophily_counts, fused.num_edges);
  return profile;
}

std::vector<std::pair<double, double>> DegreeCcdfSeries(const graph::Graph& g,
                                                        size_t max_points) {
  return stats::DownsampleCcdf(stats::Ccdf(DegreesAsDoubles(g)), max_points);
}

std::vector<std::pair<double, double>> DegreeCcdfSeries(
    const graph::CsrGraph& g, size_t max_points) {
  // Histogram-based construction: same series, no value expansion or sort.
  return stats::DownsampleCcdf(
      stats::CcdfFromHistogram(graph::DegreeHistogram(g)), max_points);
}

std::vector<std::pair<double, double>> ClusteringCcdfSeries(
    const graph::Graph& g, size_t max_points) {
  return stats::DownsampleCcdf(
      stats::Ccdf(graph::LocalClusteringCoefficients(g)), max_points);
}

std::vector<std::pair<double, double>> ClusteringCcdfSeries(
    const graph::CsrGraph& g, size_t max_points, int analytics_threads) {
  graph::FusedOptions opts;
  opts.threads = analytics_threads;
  return stats::DownsampleCcdf(
      stats::Ccdf(std::move(
          graph::FusedEvaluate(g, opts).clustering.local_coefficients)),
      max_points);
}

}  // namespace agmdp::eval
