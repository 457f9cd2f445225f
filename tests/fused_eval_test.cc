// Fused evaluation kernel (graph/fused_eval.h): randomized and edge-case
// differential tests against the adjacency-list Graph kernels (and the
// brute-force triangle count). Every FusedStats field must be
// bitwise-identical to its Graph counterpart across 1/2/4 analytics
// threads and on BOTH dispatch arms (scalar and, where the host supports
// it, AVX2) — the determinism contract DESIGN.md promises for the
// production eval path — and pools with more workers than nodes (empty
// task ranges) must agree with the 1-thread result.
// Also covers the histogram-based finalizers (KS / CCDF / degree
// distribution) and the vectorized Hellinger primitive against their
// expanded scalar forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/agm/theta_f.h"
#include "src/eval/utility_report.h"
#include "src/graph/attributed_graph.h"
#include "src/graph/clustering.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/fused_eval.h"
#include "src/graph/graph.h"
#include "src/graph/triangle_count.h"
#include "src/stats/assortativity.h"
#include "src/stats/ccdf.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace agmdp::graph {
namespace {

Graph RandomGraph(NodeId n, double p, uint64_t seed) {
  util::Rng rng(seed);
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) g.AddEdge(u, v);
    }
  }
  return g;
}

AttributedGraph RandomAttributed(NodeId n, double p, int w, uint64_t seed) {
  AttributedGraph g(RandomGraph(n, p, seed), w);
  util::Rng rng(seed + 1);
  for (NodeId v = 0; v < n; ++v) {
    g.set_attribute(v, static_cast<AttrConfig>(rng.UniformIndex(1u << w)));
  }
  return g;
}

// The dispatch arms this host can actually run: scalar always; AVX2 when
// compiled in, supported by the CPU and not disabled by env. Explicitly
// requesting an unavailable arm resolves to scalar, so skipping it here
// (rather than testing a silently-degraded arm twice) keeps intent clear.
std::vector<util::SimdIsa> TestableArms() {
  std::vector<util::SimdIsa> arms = {util::SimdIsa::kScalar};
  if (util::ResolveSimdIsa(util::SimdIsa::kAvx2) == util::SimdIsa::kAvx2) {
    arms.push_back(util::SimdIsa::kAvx2);
  }
  return arms;
}

// Pins ActiveSimdIsa() for the scope (drives the whole EvaluateRelease
// stack down one arm), restoring auto dispatch on exit.
class ScopedIsa {
 public:
  explicit ScopedIsa(util::SimdIsa isa) { util::SetSimdIsaOverride(isa); }
  ~ScopedIsa() { util::SetSimdIsaOverride(util::SimdIsa::kAuto); }
};

std::vector<uint32_t> ExpandHistogram(const std::vector<uint64_t>& hist) {
  std::vector<uint32_t> values;
  for (uint32_t d = 0; d < hist.size(); ++d) {
    for (uint64_t i = 0; i < hist[d]; ++i) values.push_back(d);
  }
  return values;
}

// Every FusedStats field, compared bitwise.
void ExpectSameStats(const FusedStats& a, const FusedStats& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.num_edges, b.num_edges);
  EXPECT_EQ(a.degree_histogram, b.degree_histogram);
  EXPECT_EQ(a.assort_sum_xy, b.assort_sum_xy);
  EXPECT_EQ(a.assort_sum_x, b.assort_sum_x);
  EXPECT_EQ(a.assort_sum_x2, b.assort_sum_x2);
  EXPECT_EQ(a.clustering.per_node_triangles, b.clustering.per_node_triangles);
  EXPECT_EQ(a.clustering.local_coefficients, b.clustering.local_coefficients);
  EXPECT_EQ(a.clustering.triangles, b.clustering.triangles);
  EXPECT_EQ(a.clustering.wedges, b.clustering.wedges);
  EXPECT_EQ(a.clustering.avg_local_clustering,
            b.clustering.avg_local_clustering);
  EXPECT_EQ(a.clustering.global_clustering, b.clustering.global_clustering);
  EXPECT_EQ(a.num_configs, b.num_configs);
  EXPECT_EQ(a.mixing_counts, b.mixing_counts);
  EXPECT_EQ(a.homophily_counts, b.homophily_counts);
  EXPECT_EQ(a.connection_counts, b.connection_counts);
}

// The (n, p, w) grid every differential test sweeps: empty, singleton,
// attribute-free, and ER graphs of growing size and attribute dimension.
struct GridCase {
  NodeId n;
  double p;
  int w;
};
const GridCase kGrid[] = {
    {0, 0.0, 2},  {1, 0.0, 1},   {12, 0.3, 0},
    {40, 0.15, 1}, {80, 0.08, 3}, {120, 0.05, 5},
};

// --------------------------------------------- fused vs Graph kernels --

TEST(FusedEvalTest, MatchesPerMetricKernelsOnEveryArmAndThreadCount) {
  for (const GridCase& c : kGrid) {
    const AttributedGraph legacy = RandomAttributed(c.n, c.p, c.w, 31 + c.n);
    const AttributedCsrGraph g = AttributedCsrGraph::FromGraph(legacy);
    const Graph& s = legacy.structure();

    // Adjacency-list oracles (computed once; all deterministic).
    const std::vector<uint64_t> hist = DegreeHistogram(s);
    const std::vector<uint64_t> per_node = PerNodeTriangles(s);
    const std::vector<double> local = LocalClusteringCoefficients(s);
    const uint64_t triangles = CountTriangles(s);
    const uint64_t wedges = CountWedges(s);
    const double avg_clustering = AverageLocalClustering(s);
    const double global_clustering = GlobalClusteringCoefficient(s);
    const double degree_assort = stats::DegreeAssortativity(s);
    const double attr_assort = stats::AttributeAssortativity(legacy);
    const std::vector<double> homophily = stats::PerAttributeHomophily(legacy);
    const std::vector<double> connection = agm::ComputeConnectionCounts(legacy);

    for (util::SimdIsa isa : TestableArms()) {
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << c.n << " w=" << c.w << " threads=" << threads
                     << " isa=" << util::SimdIsaName(isa));
        FusedOptions opts;
        opts.threads = threads;
        opts.isa = isa;
        const FusedStats fused = FusedEvaluate(g, opts);

        EXPECT_EQ(fused.num_nodes, s.num_nodes());
        EXPECT_EQ(fused.num_edges, s.num_edges());
        EXPECT_EQ(fused.degree_histogram, hist);

        EXPECT_EQ(fused.clustering.per_node_triangles, per_node);
        EXPECT_EQ(fused.clustering.local_coefficients, local);
        EXPECT_EQ(fused.clustering.triangles, triangles);
        EXPECT_EQ(fused.clustering.wedges, wedges);
        EXPECT_EQ(fused.clustering.avg_local_clustering, avg_clustering);
        EXPECT_EQ(fused.clustering.global_clustering, global_clustering);

        EXPECT_EQ(stats::DegreeAssortativityFromSums(
                      fused.assort_sum_xy, fused.assort_sum_x,
                      fused.assort_sum_x2, fused.num_edges),
                  degree_assort);
        EXPECT_EQ(stats::AttributeAssortativityFromMixingCounts(
                      fused.mixing_counts, fused.num_configs, fused.num_edges),
                  attr_assort);
        EXPECT_EQ(stats::PerAttributeHomophilyFromCounts(fused.homophily_counts,
                                                         fused.num_edges),
                  homophily);

        ASSERT_EQ(fused.connection_counts.size(), connection.size());
        for (size_t i = 0; i < connection.size(); ++i) {
          EXPECT_EQ(static_cast<double>(fused.connection_counts[i]),
                    connection[i]);
        }
        EXPECT_EQ(agm::ThetaFFromConnectionCounts(fused.connection_counts,
                                                  fused.num_edges),
                  agm::ComputeThetaF(legacy));
      }
    }
  }
}

// The snapshot edge cases — empty, edgeless, star, the K6 clique — plus
// two random graphs, with the triangle family checked against the
// brute-force O(n^3) count and the Graph kernels.
TEST(FusedEvalTest, EdgeCasesMatchBruteForceOnEveryArmAndThreadCount) {
  Graph star(6);  // center 0, leaves 1..5
  for (NodeId v = 1; v < 6; ++v) star.AddEdge(0, v);
  Graph clique(6);
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) clique.AddEdge(u, v);
  }
  const Graph cases[] = {Graph(),  Graph(7), star, clique,
                         RandomGraph(60, 0.12, 13), RandomGraph(60, 0.12, 14)};
  for (const Graph& g : cases) {
    const CsrGraph csr = CsrGraph::FromGraph(g);
    const uint64_t brute = CountTrianglesBrute(g);
    for (util::SimdIsa isa : TestableArms()) {
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << g.num_nodes() << " m=" << g.num_edges()
                     << " threads=" << threads
                     << " isa=" << util::SimdIsaName(isa));
        FusedOptions opts;
        opts.threads = threads;
        opts.isa = isa;
        const ClusteringStats c = FusedEvaluate(csr, opts).clustering;
        EXPECT_EQ(c.triangles, brute);
        EXPECT_EQ(c.per_node_triangles, PerNodeTriangles(g));
        EXPECT_EQ(c.local_coefficients, LocalClusteringCoefficients(g));
        EXPECT_EQ(c.wedges, CountWedges(g));
        EXPECT_EQ(c.avg_local_clustering, AverageLocalClustering(g));
        EXPECT_EQ(c.global_clustering, GlobalClusteringCoefficient(g));
      }
    }
  }
  const ClusteringStats k6 = FusedEvaluate(CsrGraph::FromGraph(clique))
                                 .clustering;
  EXPECT_EQ(k6.triangles, 20u);  // C(6, 3)
  for (double c : k6.local_coefficients) EXPECT_EQ(c, 1.0);
  const ClusteringStats empty =
      FusedEvaluate(CsrGraph::FromGraph(Graph())).clustering;
  EXPECT_TRUE(empty.per_node_triangles.empty());
  EXPECT_TRUE(empty.local_coefficients.empty());
  EXPECT_EQ(empty.avg_local_clustering, 0.0);
}

// Thread counts above the node count (the pool is capped at n workers)
// and ceil-sized ranges that leave a trailing task empty (n = 5 on 4
// workers) must contribute nothing beyond the 1-thread result.
TEST(FusedEvalTest, PoolsWiderThanTheGraphMatchOneThread) {
  for (NodeId n : {NodeId{0}, NodeId{1}, NodeId{3}, NodeId{5}}) {
    const AttributedGraph legacy = RandomAttributed(n, 0.9, 2, 40 + n);
    const AttributedCsrGraph g = AttributedCsrGraph::FromGraph(legacy);
    const FusedStats serial = FusedEvaluate(g);
    for (int threads : {4, 8}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
      FusedOptions opts;
      opts.threads = threads;
      ExpectSameStats(FusedEvaluate(g, opts), serial);
      ExpectSameStats(FusedEvaluate(g.structure, opts),
                      FusedEvaluate(g.structure));
    }
  }
}

TEST(FusedEvalTest, StructureOverloadSkipsAttributeFamilies) {
  const Graph s = RandomGraph(60, 0.1, 77);
  const CsrGraph csr = CsrGraph::FromGraph(s);
  const FusedStats fused = FusedEvaluate(csr);
  EXPECT_EQ(fused.num_configs, 0u);
  EXPECT_TRUE(fused.mixing_counts.empty());
  EXPECT_TRUE(fused.homophily_counts.empty());
  EXPECT_TRUE(fused.connection_counts.empty());
  EXPECT_EQ(fused.degree_histogram, DegreeHistogram(csr));
  EXPECT_EQ(fused.clustering.triangles, CountTriangles(s));
}

TEST(FusedEvalTest, TrianglesOffLeavesClusteringEmpty) {
  const Graph s = RandomGraph(50, 0.12, 78);
  const CsrGraph csr = CsrGraph::FromGraph(s);
  FusedOptions opts;
  opts.triangles = false;
  const FusedStats fused = FusedEvaluate(csr, opts);
  EXPECT_TRUE(fused.clustering.per_node_triangles.empty());
  EXPECT_TRUE(fused.clustering.local_coefficients.empty());
  EXPECT_EQ(fused.clustering.triangles, 0u);
  // Sweep-A families are still produced.
  EXPECT_EQ(fused.degree_histogram, DegreeHistogram(csr));
  EXPECT_EQ(stats::DegreeAssortativityFromSums(
                fused.assort_sum_xy, fused.assort_sum_x, fused.assort_sum_x2,
                fused.num_edges),
            stats::DegreeAssortativity(s));
}

// Direct arm-vs-arm comparison of the whole struct on a denser graph (the
// oracle loop above already pins each arm to the Graph kernels; this one
// fails loudly if the arms ever diverge from EACH OTHER).
TEST(FusedEvalTest, DispatchArmsProduceIdenticalStats) {
  const std::vector<util::SimdIsa> arms = TestableArms();
  if (arms.size() < 2) {
    GTEST_SKIP() << "AVX2 arm unavailable on this host/build";
  }
  const AttributedCsrGraph g =
      AttributedCsrGraph::FromGraph(RandomAttributed(150, 0.08, 4, 91));
  FusedOptions opts;
  opts.isa = arms[0];
  const FusedStats a = FusedEvaluate(g, opts);
  opts.isa = arms[1];
  ExpectSameStats(a, FusedEvaluate(g, opts));
}

// ------------------------------------------------- full evaluation stack --

TEST(FusedEvalTest, EvaluateReleaseAgreesWithLegacyOracleOnEveryArm) {
  const AttributedGraph original = RandomAttributed(80, 0.08, 3, 51);
  const AttributedGraph released = RandomAttributed(70, 0.1, 2, 52);
  const AttributedCsrGraph released_csr =
      AttributedCsrGraph::FromGraph(released);

  const eval::ReferenceProfile ref_legacy =
      eval::ProfileReferenceLegacy(original);
  const auto flat_legacy =
      eval::EvaluateReleaseLegacy(ref_legacy, released).Flatten();

  for (util::SimdIsa isa : TestableArms()) {
    ScopedIsa scoped(isa);
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " isa="
                                      << util::SimdIsaName(isa));
      const eval::ReferenceProfile ref =
          eval::ProfileReference(original, threads);
      EXPECT_EQ(ref.degree_histogram, ref_legacy.degree_histogram);
      EXPECT_EQ(ref.sorted_local_clustering,
                ref_legacy.sorted_local_clustering);
      EXPECT_EQ(ref.sorted_degrees, ref_legacy.sorted_degrees);
      EXPECT_EQ(ref.theta_f, ref_legacy.theta_f);

      const auto flat_fused =
          eval::EvaluateRelease(ref, released_csr, threads).Flatten();
      EXPECT_EQ(flat_fused, flat_legacy);
    }
  }
}

// ------------------------------------------------- histogram finalizers --

TEST(FusedEvalTest, KsStatisticFromHistogramsMatchesExpandedForm) {
  const std::vector<std::vector<uint64_t>> hists = {
      {},
      {0, 0, 0},
      {3},
      {0, 4, 0, 1},
      DegreeHistogram(CsrGraph::FromGraph(RandomGraph(90, 0.07, 61))),
      DegreeHistogram(CsrGraph::FromGraph(RandomGraph(50, 0.2, 62))),
  };
  for (const auto& h1 : hists) {
    for (const auto& h2 : hists) {
      EXPECT_EQ(stats::KsStatisticFromHistograms(h1, h2),
                stats::KsStatistic(ExpandHistogram(h1), ExpandHistogram(h2)));
    }
  }
}

TEST(FusedEvalTest, CcdfFromHistogramMatchesExpandedForm) {
  const std::vector<std::vector<uint64_t>> hists = {
      {},
      {0, 0},
      {2, 0, 5, 0, 0, 1},
      DegreeHistogram(CsrGraph::FromGraph(RandomGraph(90, 0.07, 63))),
  };
  for (const auto& h : hists) {
    const std::vector<uint32_t> values = ExpandHistogram(h);
    std::vector<double> as_doubles(values.begin(), values.end());
    EXPECT_EQ(stats::CcdfFromHistogram(h), stats::Ccdf(std::move(as_doubles)));
  }
}

TEST(FusedEvalTest, DegreeDistributionFromHistogramMatchesGraphPath) {
  const CsrGraph csr = CsrGraph::FromGraph(RandomGraph(70, 0.1, 64));
  EXPECT_EQ(stats::DegreeDistributionFromHistogram(DegreeHistogram(csr),
                                                   csr.num_nodes()),
            stats::DegreeDistribution(csr));
}

TEST(FusedEvalTest, KsDistanceSortedMatchesUnsortedEntryPoint) {
  util::Rng rng(65);
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) a.push_back(rng.UniformDouble());
  for (int i = 0; i < 150; ++i) b.push_back(rng.UniformDouble());
  const double expected = stats::KsDistance(a, b);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(stats::KsDistanceSorted(a, b), expected);
  EXPECT_EQ(stats::KsDistanceSorted(a, {}), 1.0);
  EXPECT_EQ(stats::KsDistanceSorted({}, {}), 0.0);
}

// --------------------------------------------------- SIMD primitives --

TEST(SimdTest, SquaredSqrtDiffArmsBitwiseIdentical) {
  util::Rng rng(66);
  // Lengths straddling the 4-lane width, plus values that exercise the
  // max(0, x) clamp (negatives, exact zeros).
  for (size_t len : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                     size_t{257}}) {
    std::vector<double> p(len), q(len);
    for (size_t i = 0; i < len; ++i) {
      p[i] = rng.UniformDouble() - 0.25;
      q[i] = (i % 5 == 0) ? 0.0 : rng.UniformDouble() - 0.25;
    }
    std::vector<double> expected(len);
    for (size_t i = 0; i < len; ++i) {
      const double d =
          std::sqrt(std::max(0.0, p[i])) - std::sqrt(std::max(0.0, q[i]));
      expected[i] = d * d;
    }
    for (util::SimdIsa isa : TestableArms()) {
      ScopedIsa scoped(isa);
      std::vector<double> out(len, -1.0);
      util::SquaredSqrtDiff(p.data(), q.data(), len, out.data());
      EXPECT_EQ(out, expected) << "len=" << len << " isa="
                               << util::SimdIsaName(isa);
    }
  }
}

TEST(SimdTest, HellingerDistanceUnchangedByVectorization) {
  // The vectorized HellingerDistance must equal the textbook scalar loop.
  util::Rng rng(67);
  std::vector<double> p(37), q(41);
  for (auto& x : p) x = rng.UniformDouble();
  for (auto& x : q) x = rng.UniformDouble();
  const size_t len = std::max(p.size(), q.size());
  double sum = 0.0;
  for (size_t i = 0; i < len; ++i) {
    const double pi = i < p.size() ? p[i] : 0.0;
    const double qi = i < q.size() ? q[i] : 0.0;
    const double d = std::sqrt(std::max(0.0, pi)) - std::sqrt(std::max(0.0, qi));
    sum += d * d;
  }
  const double expected = std::sqrt(sum) / std::sqrt(2.0);
  for (util::SimdIsa isa : TestableArms()) {
    ScopedIsa scoped(isa);
    EXPECT_EQ(stats::HellingerDistance(p, q), expected);
  }
}

TEST(SimdTest, ResolveClampsUnavailableArms) {
  EXPECT_EQ(util::ResolveSimdIsa(util::SimdIsa::kScalar),
            util::SimdIsa::kScalar);
  // kAuto resolves to SOME concrete arm.
  const util::SimdIsa active = util::ActiveSimdIsa();
  EXPECT_NE(active, util::SimdIsa::kAuto);
  // Pinning scalar drives auto dispatch scalar; clearing restores it.
  {
    ScopedIsa scoped(util::SimdIsa::kScalar);
    EXPECT_EQ(util::ActiveSimdIsa(), util::SimdIsa::kScalar);
  }
  EXPECT_EQ(util::ActiveSimdIsa(), active);
}

}  // namespace
}  // namespace agmdp::graph
