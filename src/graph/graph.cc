#include "src/graph/graph.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace agmdp::graph {

Graph::Graph(NodeId num_nodes) : adj_(num_nodes) {}

Graph Graph::FromDistinctEdges(NodeId num_nodes,
                               const std::vector<Edge>& edges,
                               util::FlatEdgeSet keys) {
  AGMDP_CHECK(keys.size() == edges.size());
  Graph g(num_nodes);
  std::vector<uint32_t> degree(num_nodes, 0);
  for (const Edge& e : edges) {
    ++degree[e.u];
    ++degree[e.v];
  }
  for (NodeId v = 0; v < num_nodes; ++v) g.adj_[v].reserve(degree[v]);
  for (const Edge& e : edges) {
    g.adj_[e.u].push_back(e.v);
    g.adj_[e.v].push_back(e.u);
  }
  g.edge_set_ = std::move(keys);
  g.num_edges_ = edges.size();
  return g;
}

bool Graph::AddEdge(NodeId u, NodeId v) {
  if (u == v || u >= num_nodes() || v >= num_nodes()) return false;
  if (!edge_set_.Insert(PackEdge(u, v))) return false;
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++num_edges_;
  return true;
}

bool Graph::RemoveEdge(NodeId u, NodeId v) {
  if (u == v || u >= num_nodes() || v >= num_nodes()) return false;
  if (!edge_set_.Erase(PackEdge(u, v))) return false;
  auto drop = [](std::vector<NodeId>& list, NodeId x) {
    auto it = std::find(list.begin(), list.end(), x);
    AGMDP_CHECK(it != list.end());
    *it = list.back();
    list.pop_back();
  };
  drop(adj_[u], v);
  drop(adj_[v], u);
  --num_edges_;
  return true;
}

uint32_t Graph::CommonNeighborCount(NodeId u, NodeId v) const {
  const std::vector<NodeId>& smaller =
      adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
  const NodeId other = adj_[u].size() <= adj_[v].size() ? v : u;
  uint32_t count = 0;
  for (NodeId w : smaller) {
    if (w != other && HasEdge(w, other)) ++count;
  }
  return count;
}

uint32_t Graph::MaxDegree() const {
  uint32_t max_degree = 0;
  for (const auto& list : adj_) {
    max_degree = std::max(max_degree, static_cast<uint32_t>(list.size()));
  }
  return max_degree;
}

std::vector<Edge> Graph::CanonicalEdges() const {
  // Edges are emitted u by u, so sorting each u's run by v yields the
  // lexicographic order without sorting the whole list.
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (NodeId u = 0; u < num_nodes(); ++u) {
    const size_t run = edges.size();
    for (NodeId v : adj_[u]) {
      if (u < v) edges.emplace_back(u, v);
    }
    std::sort(edges.begin() + static_cast<ptrdiff_t>(run), edges.end());
  }
  return edges;
}

void Graph::ClearEdges() {
  for (auto& list : adj_) list.clear();
  edge_set_.Clear();
  num_edges_ = 0;
}

}  // namespace agmdp::graph
