#include "src/stats/joint_degree.h"

#include <cmath>
#include <utility>

namespace agmdp::stats {

namespace {

using JointDegreeMap = std::map<std::pair<uint32_t, uint32_t>, double>;

// Shared tail: Hellinger distance between two sorted-support mass maps.
double HellingerOfMaps(const JointDegreeMap& pa, const JointDegreeMap& pb) {
  double sum = 0.0;
  auto ia = pa.begin();
  auto ib = pb.begin();
  // Merge-walk the two sorted supports.
  while (ia != pa.end() || ib != pb.end()) {
    double x = 0.0, y = 0.0;
    if (ib == pb.end() || (ia != pa.end() && ia->first < ib->first)) {
      x = (ia++)->second;
    } else if (ia == pa.end() || ib->first < ia->first) {
      y = (ib++)->second;
    } else {
      x = (ia++)->second;
      y = (ib++)->second;
    }
    const double d = std::sqrt(x) - std::sqrt(y);
    sum += d * d;
  }
  return std::sqrt(sum) / std::sqrt(2.0);
}

// One serial body for both representations: +1.0 per canonical edge is
// exact, so the masses are identical whichever graph type walks the edges.
template <typename AnyGraph>
JointDegreeMap JointDegreeDistributionImpl(const AnyGraph& g) {
  JointDegreeMap dist;
  if (g.num_edges() == 0) return dist;
  g.ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    uint32_t du = g.Degree(u), dv = g.Degree(v);
    if (du > dv) std::swap(du, dv);
    dist[{du, dv}] += 1.0;
  });
  const double m = static_cast<double>(g.num_edges());
  for (auto& [key, mass] : dist) mass /= m;
  return dist;
}

}  // namespace

JointDegreeMap JointDegreeDistribution(const graph::Graph& g) {
  return JointDegreeDistributionImpl(g);
}

JointDegreeMap JointDegreeDistribution(const graph::CsrGraph& g) {
  return JointDegreeDistributionImpl(g);
}

double JointDegreeDistance(const graph::Graph& a, const graph::Graph& b) {
  return HellingerOfMaps(JointDegreeDistribution(a),
                         JointDegreeDistribution(b));
}

double JointDegreeDistance(const graph::CsrGraph& a,
                           const graph::CsrGraph& b) {
  return HellingerOfMaps(JointDegreeDistribution(a),
                         JointDegreeDistribution(b));
}

}  // namespace agmdp::stats
