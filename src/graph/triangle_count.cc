#include "src/graph/triangle_count.h"

#include <algorithm>
#include <numeric>

#include "src/util/check.h"

namespace agmdp::graph {

namespace {

// Degree-based rank: nodes ordered by (degree, id); edges are directed from
// lower rank to higher rank, so each triangle is found exactly once at its
// lowest-rank corner.
std::vector<uint32_t> DegreeRanks(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    uint32_t da = g.Degree(a), db = g.Degree(b);
    return da != db ? da < db : a < b;
  });
  std::vector<uint32_t> rank(n);
  for (NodeId i = 0; i < n; ++i) rank[order[i]] = i;
  return rank;
}

// Wedge count from degrees only — shared by both representations.
template <typename AnyGraph>
uint64_t CountWedgesImpl(const AnyGraph& g) {
  uint64_t wedges = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    uint64_t d = g.Degree(v);
    wedges += d * (d - 1) / 2;
  }
  return wedges;
}

}  // namespace

uint64_t CountTriangles(const Graph& g) {
  const NodeId n = g.num_nodes();
  if (n == 0) return 0;
  std::vector<uint32_t> rank = DegreeRanks(g);

  // Forward adjacency: only neighbors of higher rank.
  std::vector<std::vector<NodeId>> forward(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (rank[u] < rank[v]) forward[u].push_back(v);
    }
  }

  uint64_t triangles = 0;
  std::vector<uint8_t> mark(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : forward[u]) mark[v] = 1;
    for (NodeId v : forward[u]) {
      for (NodeId w : forward[v]) {
        if (mark[w]) ++triangles;
      }
    }
    for (NodeId v : forward[u]) mark[v] = 0;
  }
  return triangles;
}

uint64_t CountTrianglesBrute(const Graph& g) {
  const NodeId n = g.num_nodes();
  uint64_t triangles = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (!g.HasEdge(a, b)) continue;
      for (NodeId c = b + 1; c < n; ++c) {
        if (g.HasEdge(a, c) && g.HasEdge(b, c)) ++triangles;
      }
    }
  }
  return triangles;
}

uint64_t CountWedges(const Graph& g) { return CountWedgesImpl(g); }

uint64_t CountWedges(const CsrGraph& g) { return CountWedgesImpl(g); }

std::vector<uint64_t> PerNodeTriangles(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<uint64_t> counts(n, 0);
  // Edge iterator: each edge's common-neighbor count is the number of
  // triangles through that edge; a triangle has three edges and each of its
  // corners sits on two of them, so crediting both endpoints of every edge
  // counts each corner exactly twice.
  g.ForEachEdge([&](NodeId u, NodeId v) {
    uint32_t t = g.CommonNeighborCount(u, v);
    counts[u] += t;
    counts[v] += t;
  });
  for (auto& c : counts) {
    AGMDP_CHECK(c % 2 == 0);
    c /= 2;
  }
  return counts;
}

util::Result<uint32_t> MaxCommonNeighborCount(const Graph& g,
                                              uint64_t max_work) {
  const NodeId n = g.num_nodes();
  // Work is sum over nodes of degree^2 (each node, via its neighbors'
  // adjacency lists, touches that many two-hop endpoints).
  uint64_t work = 0;
  for (NodeId v = 0; v < n; ++v) {
    uint64_t d = g.Degree(v);
    work += d * d;
    if (work > max_work) {
      return util::Status::FailedPrecondition(
          "MaxCommonNeighborCount: wedge work exceeds max_work budget");
    }
  }

  std::vector<uint32_t> counter(n, 0);
  std::vector<NodeId> touched;
  uint32_t best = 0;
  for (NodeId u = 0; u < n; ++u) {
    touched.clear();
    for (NodeId w : g.Neighbors(u)) {
      for (NodeId x : g.Neighbors(w)) {
        if (x <= u) continue;  // each unordered pair handled once (u < x)
        if (counter[x]++ == 0) touched.push_back(x);
      }
    }
    for (NodeId x : touched) {
      best = std::max(best, counter[x]);
      counter[x] = 0;
    }
  }
  return best;
}

}  // namespace agmdp::graph
