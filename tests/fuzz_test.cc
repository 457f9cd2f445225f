// Randomized differential tests: every fast graph algorithm is checked
// against a brute-force reference on random graphs across seeds and
// densities, and the dynamic Graph structure is fuzzed against a simple
// edge-set model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "src/graph/clustering.h"
#include "src/graph/components.h"
#include "src/graph/degree.h"
#include "src/graph/paths.h"
#include "src/graph/subgraph_counts.h"
#include "src/graph/triangle_count.h"
#include "src/models/erdos_renyi.h"
#include "src/util/flat_edge_set.h"
#include "src/util/rng.h"

namespace agmdp::graph {
namespace {

// -------------------------------------------------- Graph structure fuzz --

TEST(GraphFuzzTest, MatchesSetModelUnderRandomMutations) {
  util::Rng rng(1);
  const NodeId n = 25;
  Graph g(n);
  std::set<std::pair<NodeId, NodeId>> model;

  for (int step = 0; step < 20000; ++step) {
    auto u = static_cast<NodeId>(rng.UniformIndex(n));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    auto key = std::minmax(u, v);
    if (rng.Bernoulli(0.6)) {
      const bool added = g.AddEdge(u, v);
      const bool model_added = u != v && model.insert(key).second;
      ASSERT_EQ(added, model_added) << "step " << step;
    } else {
      const bool removed = g.RemoveEdge(u, v);
      const bool model_removed = model.erase(key) > 0;
      ASSERT_EQ(removed, model_removed) << "step " << step;
    }
  }

  // Final state must agree exactly.
  ASSERT_EQ(g.num_edges(), model.size());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      ASSERT_EQ(g.HasEdge(u, v), model.count({u, v}) > 0);
    }
  }
  std::vector<Edge> edges = g.CanonicalEdges();
  ASSERT_EQ(edges.size(), model.size());
  auto it = model.begin();
  for (const Edge& e : edges) {
    ASSERT_EQ(e.u, it->first);
    ASSERT_EQ(e.v, it->second);
    ++it;
  }
}

TEST(GraphFuzzTest, DegreesConsistentWithAdjacency) {
  util::Rng rng(2);
  Graph g = models::ErdosRenyiGnp(60, 0.15, rng);
  for (int step = 0; step < 3000; ++step) {
    auto u = static_cast<NodeId>(rng.UniformIndex(60));
    auto v = static_cast<NodeId>(rng.UniformIndex(60));
    if (rng.Bernoulli(0.5)) {
      g.AddEdge(u, v);
    } else {
      g.RemoveEdge(u, v);
    }
  }
  uint64_t degree_sum = 0;
  for (NodeId v = 0; v < 60; ++v) {
    EXPECT_EQ(g.Degree(v), g.Neighbors(v).size());
    for (NodeId w : g.Neighbors(v)) EXPECT_TRUE(g.HasEdge(v, w));
    degree_sum += g.Degree(v);
  }
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

// CanonicalEdges sorts each node's higher neighbours; the reference is the
// definition it replaced: every edge via ForEachEdge, then one global sort.
// Removals scramble the adjacency lists (swap-erase), so the per-node runs
// are far from sorted.
TEST(GraphFuzzTest, CanonicalEdgesMatchesGlobalSort) {
  util::Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<NodeId>(1 + rng.UniformIndex(90));
    Graph g = models::ErdosRenyiGnp(n, rng.UniformDouble() * 0.5, rng);
    for (int step = 0; step < 300; ++step) {
      g.RemoveEdge(static_cast<NodeId>(rng.UniformIndex(n)),
                   static_cast<NodeId>(rng.UniformIndex(n)));
      g.AddEdge(static_cast<NodeId>(rng.UniformIndex(n)),
                static_cast<NodeId>(rng.UniformIndex(n)));
    }
    std::vector<Edge> reference;
    g.ForEachEdge([&](NodeId u, NodeId v) { reference.emplace_back(u, v); });
    std::sort(reference.begin(), reference.end());
    ASSERT_EQ(g.CanonicalEdges(), reference) << "trial " << trial;
  }
}

// FromDistinctEdges builds exactly the graph an AddEdge loop builds —
// adjacency lists in the same order — with every list sized to its degree.
TEST(GraphFuzzTest, FromDistinctEdgesMatchesAddEdgeLoop) {
  util::Rng rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<NodeId>(2 + rng.UniformIndex(60));
    Graph grown(n);
    std::vector<Edge> kept;
    util::FlatEdgeSet keys;
    for (int step = 0; step < 400; ++step) {
      const auto u = static_cast<NodeId>(rng.UniformIndex(n));
      const auto v = static_cast<NodeId>(rng.UniformIndex(n));
      if (grown.AddEdge(u, v)) {
        kept.emplace_back(u, v);
        ASSERT_TRUE(keys.Insert(PackEdge(u, v)));
      }
    }
    const Graph built = Graph::FromDistinctEdges(n, kept, std::move(keys));
    ASSERT_EQ(built.num_edges(), grown.num_edges()) << "trial " << trial;
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(built.Neighbors(v), grown.Neighbors(v))
          << "trial " << trial << " node " << v;
      EXPECT_EQ(built.Neighbors(v).capacity(), built.Degree(v));
    }
    for (const Edge& e : kept) EXPECT_TRUE(built.HasEdge(e.u, e.v));
    EXPECT_EQ(built.CanonicalEdges(), grown.CanonicalEdges());
  }
}

// ------------------------------------------- Differential algorithm tests --

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Graph RandomGraph(util::Rng& rng) {
    const NodeId n = 20 + rng.UniformIndex(25);
    const double p = 0.02 + rng.UniformDouble() * 0.4;
    return models::ErdosRenyiGnp(static_cast<NodeId>(n), p, rng);
  }
};

TEST_P(DifferentialTest, TriangleCountMatchesBrute) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = RandomGraph(rng);
    EXPECT_EQ(CountTriangles(g), CountTrianglesBrute(g));
  }
}

TEST_P(DifferentialTest, CommonNeighborsMatchBrute) {
  util::Rng rng(GetParam() + 1000);
  Graph g = RandomGraph(rng);
  const NodeId n = g.num_nodes();
  for (int trial = 0; trial < 200; ++trial) {
    auto u = static_cast<NodeId>(rng.UniformIndex(n));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u == v) continue;
    uint32_t brute = 0;
    for (NodeId w = 0; w < n; ++w) {
      brute += w != u && w != v && g.HasEdge(u, w) && g.HasEdge(v, w);
    }
    EXPECT_EQ(g.CommonNeighborCount(u, v), brute);
  }
}

TEST_P(DifferentialTest, LocalClusteringMatchesDefinition) {
  util::Rng rng(GetParam() + 2000);
  Graph g = RandomGraph(rng);
  std::vector<double> fast = LocalClusteringCoefficients(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& nbrs = g.Neighbors(v);
    const uint64_t d = nbrs.size();
    double expected = 0.0;
    if (d >= 2) {
      uint64_t links = 0;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        for (size_t j = i + 1; j < nbrs.size(); ++j) {
          links += g.HasEdge(nbrs[i], nbrs[j]);
        }
      }
      expected = 2.0 * static_cast<double>(links) /
                 (static_cast<double>(d) * static_cast<double>(d - 1));
    }
    EXPECT_NEAR(fast[v], expected, 1e-12);
  }
}

TEST_P(DifferentialTest, MaxCommonNeighborMatchesBrute) {
  util::Rng rng(GetParam() + 3000);
  Graph g = RandomGraph(rng);
  uint32_t brute = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      brute = std::max(brute, g.CommonNeighborCount(u, v));
    }
  }
  auto fast = MaxCommonNeighborCount(g, 1u << 30);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast.value(), brute);
}

TEST_P(DifferentialTest, ComponentsMatchUnionFind) {
  util::Rng rng(GetParam() + 4000);
  Graph g = RandomGraph(rng);
  const NodeId n = g.num_nodes();
  // Reference: union-find.
  std::vector<NodeId> parent(n);
  for (NodeId v = 0; v < n; ++v) parent[v] = v;
  std::function<NodeId(NodeId)> find = [&](NodeId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  g.ForEachEdge([&](NodeId u, NodeId v) { parent[find(u)] = find(v); });

  uint32_t count = 0;
  std::vector<uint32_t> label = ConnectedComponents(g, &count);
  std::set<NodeId> roots;
  for (NodeId v = 0; v < n; ++v) roots.insert(find(v));
  EXPECT_EQ(count, roots.size());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      EXPECT_EQ(label[u] == label[v], find(u) == find(v));
    }
  }
}

TEST_P(DifferentialTest, BfsMatchesFloydWarshallOnSmallGraphs) {
  util::Rng rng(GetParam() + 5000);
  const NodeId n = 18;
  Graph g = models::ErdosRenyiGnp(n, 0.15, rng);
  constexpr uint32_t kInf = 1u << 30;
  std::vector<std::vector<uint32_t>> dist(n, std::vector<uint32_t>(n, kInf));
  for (NodeId v = 0; v < n; ++v) dist[v][v] = 0;
  g.ForEachEdge([&](NodeId u, NodeId v) { dist[u][v] = dist[v][u] = 1; });
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  for (NodeId s = 0; s < n; ++s) {
    std::vector<uint32_t> bfs = BfsDistances(g, s);
    for (NodeId t = 0; t < n; ++t) {
      if (dist[s][t] >= kInf) {
        EXPECT_EQ(bfs[t], std::numeric_limits<uint32_t>::max());
      } else {
        EXPECT_EQ(bfs[t], dist[s][t]);
      }
    }
  }
}

TEST_P(DifferentialTest, KStarsMatchDirectBinomialSum) {
  util::Rng rng(GetParam() + 6000);
  Graph g = RandomGraph(rng);
  for (uint32_t k = 1; k <= 4; ++k) {
    uint64_t direct = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      direct += BinomialOrSaturate(g.Degree(v), k);
    }
    EXPECT_EQ(CountKStars(g, k), direct);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace agmdp::graph
