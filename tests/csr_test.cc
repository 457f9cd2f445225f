// CsrGraph snapshot layer: FromGraph round-trip equivalence against the
// mutable Graph, edge cases (empty / star / complete), the serial snapshot
// reads (wedges, degree and dK-2 distributions, BFS) against the
// adjacency-list path, and the determinism contract of the evaluation
// entry points — every metric computed via the snapshot must be
// bitwise-identical to the legacy adjacency-list path, and identical
// across 1/2/4 analytics threads. The fused kernel's triangle family is
// checked against the brute-force oracle in fused_eval_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/eval/utility_report.h"
#include "src/graph/attributed_graph.h"
#include "src/graph/csr.h"
#include "src/graph/degree.h"
#include "src/graph/graph.h"
#include "src/graph/paths.h"
#include "src/graph/triangle_count.h"
#include "src/stats/joint_degree.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"

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

std::vector<NodeId> SortedNeighbors(const Graph& g, NodeId v) {
  std::vector<NodeId> out = g.Neighbors(v);
  std::sort(out.begin(), out.end());
  return out;
}

// --------------------------------------------------------- structure --

TEST(CsrGraphTest, EmptyGraph) {
  const CsrGraph csr = CsrGraph::FromGraph(Graph());
  EXPECT_EQ(csr.num_nodes(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
  EXPECT_EQ(csr.MaxDegree(), 0u);
  EXPECT_EQ(CountWedges(csr), 0u);
}

TEST(CsrGraphTest, EdgelessGraph) {
  const CsrGraph csr = CsrGraph::FromGraph(Graph(7));
  EXPECT_EQ(csr.num_nodes(), 7u);
  EXPECT_EQ(csr.num_edges(), 0u);
  for (NodeId v = 0; v < 7; ++v) {
    EXPECT_EQ(csr.Degree(v), 0u);
    EXPECT_TRUE(csr.Neighbors(v).empty());
  }
  EXPECT_FALSE(csr.HasEdge(0, 1));
}

TEST(CsrGraphTest, StarGraph) {
  Graph g(6);  // center 0, leaves 1..5
  for (NodeId v = 1; v < 6; ++v) g.AddEdge(0, v);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(csr.Degree(0), 5u);
  EXPECT_EQ(csr.MaxDegree(), 5u);
  for (NodeId v = 1; v < 6; ++v) {
    EXPECT_EQ(csr.Degree(v), 1u);
    EXPECT_TRUE(csr.HasEdge(0, v));
    EXPECT_TRUE(csr.HasEdge(v, 0));
  }
  EXPECT_FALSE(csr.HasEdge(1, 2));
  EXPECT_EQ(CountWedges(csr), 10u);  // C(5, 2) at the center
  EXPECT_EQ(csr.CommonNeighborCount(1, 2), 1u);  // the center
  EXPECT_EQ(csr.CommonNeighborCount(0, 1), 0u);
}

TEST(CsrGraphTest, CompleteGraph) {
  const NodeId n = 6;
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(csr.num_edges(), 15u);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(csr.Degree(u), n - 1);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(csr.HasEdge(u, v), u != v);
    }
  }
  EXPECT_EQ(CountWedges(csr), 60u);  // 6 * C(5, 2)
}

TEST(CsrGraphTest, RoundTripMatchesGraph) {
  const Graph g = RandomGraph(40, 0.15, 11);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  ASSERT_EQ(csr.num_nodes(), g.num_nodes());
  EXPECT_EQ(csr.num_edges(), g.num_edges());
  EXPECT_EQ(csr.MaxDegree(), g.MaxDegree());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(csr.Degree(v), g.Degree(v));
    const std::vector<NodeId> expected = SortedNeighbors(g, v);
    const NeighborRange range = csr.Neighbors(v);
    ASSERT_EQ(range.size(), expected.size());
    EXPECT_TRUE(std::equal(range.begin(), range.end(), expected.begin()));
    EXPECT_TRUE(std::is_sorted(range.begin(), range.end()));
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(csr.HasEdge(u, v), g.HasEdge(u, v)) << u << "," << v;
      if (u != v) {
        EXPECT_EQ(csr.CommonNeighborCount(u, v), g.CommonNeighborCount(u, v));
      }
    }
  }
  EXPECT_EQ(DegreeSequence(csr), DegreeSequence(g));
  EXPECT_EQ(SortedDegreeSequence(csr), SortedDegreeSequence(g));
  EXPECT_EQ(DegreeHistogram(csr), DegreeHistogram(g));
  EXPECT_EQ(AverageDegree(csr), AverageDegree(g));
}

TEST(CsrGraphTest, ForEachEdgeIsCanonicalOrder) {
  const Graph g = RandomGraph(30, 0.2, 12);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  std::vector<Edge> seen;
  csr.ForEachEdge([&](NodeId u, NodeId v) { seen.emplace_back(u, v); });
  EXPECT_EQ(seen, g.CanonicalEdges());
}

// ----------------------------------------------------------- kernels --

TEST(CsrKernelsTest, SerialStatsMatchLegacy) {
  const AttributedGraph g = RandomAttributed(70, 0.1, 3, 15);
  const AttributedCsrGraph snapshot = AttributedCsrGraph::FromGraph(g);
  const Graph& s = g.structure();
  const CsrGraph& csr = snapshot.structure;
  EXPECT_EQ(CountWedges(csr), CountWedges(s));
  EXPECT_EQ(stats::DegreeDistribution(csr), stats::DegreeDistribution(s));
  EXPECT_EQ(stats::JointDegreeDistribution(csr),
            stats::JointDegreeDistribution(s));
  EXPECT_EQ(stats::JointDegreeDistance(csr, csr),
            stats::JointDegreeDistance(s, s));
  const AttributedGraph other = RandomAttributed(50, 0.15, 3, 17);
  EXPECT_EQ(stats::JointDegreeDistance(
                csr, CsrGraph::FromGraph(other.structure())),
            stats::JointDegreeDistance(s, other.structure()));
}

TEST(CsrKernelsTest, BfsAndPathStatsMatchLegacy) {
  const Graph g = RandomGraph(50, 0.08, 16);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  for (NodeId s : {NodeId{0}, NodeId{17}, NodeId{49}}) {
    EXPECT_EQ(BfsDistances(csr, s), BfsDistances(g, s));
  }
  util::Rng rng_legacy(99), rng_csr(99);
  const PathStats legacy = EstimatePathStats(g, 16, rng_legacy);
  const PathStats snapshot = EstimatePathStats(csr, 16, rng_csr);
  EXPECT_EQ(snapshot.avg_path_length, legacy.avg_path_length);
  EXPECT_EQ(snapshot.effective_diameter, legacy.effective_diameter);
  EXPECT_EQ(snapshot.diameter_lower_bound, legacy.diameter_lower_bound);
}

// -------------------------------------------------------------- eval --

TEST(CsrEvalTest, EvaluateReleaseBitwiseEqualsLegacyAtEveryThreadCount) {
  // A random "original" and a random "released" graph, with different
  // attribute dimensions to exercise the common-prefix homophily path.
  const AttributedGraph original = RandomAttributed(80, 0.08, 3, 21);
  const AttributedGraph released = RandomAttributed(70, 0.1, 2, 22);

  const eval::ReferenceProfile ref_legacy =
      eval::ProfileReferenceLegacy(original);
  const eval::UtilityReport report_legacy =
      eval::EvaluateReleaseLegacy(ref_legacy, released);
  const auto flat_legacy = report_legacy.Flatten();

  for (int threads : {1, 2, 4}) {
    const eval::ReferenceProfile ref = eval::ProfileReference(original, threads);
    EXPECT_EQ(ref.theta_f, ref_legacy.theta_f);
    EXPECT_EQ(ref.sorted_degrees, ref_legacy.sorted_degrees);
    EXPECT_EQ(ref.degree_distribution, ref_legacy.degree_distribution);
    EXPECT_EQ(ref.local_clustering, ref_legacy.local_clustering);
    EXPECT_EQ(ref.avg_clustering, ref_legacy.avg_clustering);
    EXPECT_EQ(ref.global_clustering, ref_legacy.global_clustering);
    EXPECT_EQ(ref.triangles, ref_legacy.triangles);
    EXPECT_EQ(ref.degree_assortativity, ref_legacy.degree_assortativity);
    EXPECT_EQ(ref.attribute_assortativity, ref_legacy.attribute_assortativity);
    EXPECT_EQ(ref.homophily, ref_legacy.homophily);

    // Both entry points: the AttributedGraph wrapper (one snapshot built
    // internally) and a caller-built snapshot.
    const auto flat_wrapped =
        eval::EvaluateRelease(ref, released, threads).Flatten();
    const auto flat_snapshot =
        eval::EvaluateRelease(ref, graph::AttributedCsrGraph::FromGraph(released),
                              threads)
            .Flatten();
    EXPECT_EQ(flat_wrapped, flat_legacy);
    EXPECT_EQ(flat_snapshot, flat_legacy);
  }
}

TEST(CsrEvalTest, CcdfSeriesMatchLegacy) {
  const Graph g = RandomGraph(60, 0.1, 23);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(eval::DegreeCcdfSeries(csr, 30), eval::DegreeCcdfSeries(g, 30));
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(eval::ClusteringCcdfSeries(csr, 30, threads),
              eval::ClusteringCcdfSeries(g, 30));
  }
}

TEST(CsrEvalTest, ProfileGraphMatchesAcrossThreadCounts) {
  const AttributedGraph g = RandomAttributed(60, 0.1, 2, 24);
  util::Rng rng1(7), rng2(7);
  const eval::StructuralProfile p1 = eval::ProfileGraph(g, 16, rng1, 1);
  const eval::StructuralProfile p4 = eval::ProfileGraph(g, 16, rng2, 4);
  EXPECT_EQ(p1.avg_path_length, p4.avg_path_length);
  EXPECT_EQ(p1.degree_assortativity, p4.degree_assortativity);
  EXPECT_EQ(p1.attribute_assortativity, p4.attribute_assortativity);
  EXPECT_EQ(p1.homophily, p4.homophily);
}

}  // namespace
}  // namespace agmdp::graph
