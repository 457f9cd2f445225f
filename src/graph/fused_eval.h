// Fused analytics kernel over CSR snapshots (DESIGN.md "Fused evaluation
// kernel") — the one read path behind EvaluateRelease / ProfileReference /
// Summarize / ProfileGraph and the Figure 2/3 series. Every per-node
// partial the Section 5.1 statistics need comes out of two sweeps over the
// neighbor arrays:
//
//   Sweep A (one pass over the canonical edges):
//     degree histogram, degree-assortativity per-node partials and the
//     k x k ordered-endpoint attribute mixing tallies. Connection counts
//     Q_F, per-attribute homophily tallies and Newman's attribute
//     assortativity are all pure functions of the mixing tallies, so they
//     cost no extra edge pass.
//   Sweep B (optional, triangle family): per-node triangle counts via the
//     mark-based forward-orientation kernel, from which the whole
//     clustering family derives through the same shared formulas the
//     adjacency-list kernels use.
//
// Both sweeps and the two passes that build sweep B's forward adjacency
// run as batches of contiguous node ranges on one util::WorkerPool built
// per call. The innermost sweep-B loop is SIMD-dispatched (util/simd.h):
// the AVX2 arm gathers mark words for eight candidate corners at a time.
// Both arms instantiate ONE templated body (fused_eval_impl.h), and only
// integer operations are vectorized, so every field below is
// bitwise-identical across scalar/AVX2 dispatch and across thread counts:
//   * integer tallies merge order-free (per-task tallies, merged in task
//     order after each batch);
//   * double accumulations follow the per-source-node-partial fixed
//     summation order (partials over ascending forward neighbors, reduced
//     in node order) — identical to the adjacency-list Graph kernels, which
//     tests keep alive as the cross-check oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/clustering.h"
#include "src/graph/csr.h"
#include "src/util/simd.h"

namespace agmdp::graph {

struct FusedOptions {
  /// Worker count for both sweeps (<= 0 selects the available cores,
  /// util::AvailableConcurrency).
  int threads = 1;
  /// Dispatch arm for the vectorized inner loops; kAuto picks the best
  /// supported arm (tests pin each arm explicitly).
  util::SimdIsa isa = util::SimdIsa::kAuto;
  /// Run sweep B (per-node triangles + clustering family). The dominant
  /// cost; profiles that only need edge-level statistics turn it off.
  bool triangles = true;
};

/// \brief Every statistic family of one evaluation pass, fused.
///
/// Integer tallies are exact; derived doubles follow the same formula and
/// summation chains as the adjacency-list kernels (see file comment), so
/// each field equals its Graph counterpart bit-for-bit.
struct FusedStats {
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;

  /// hist[d] = number of nodes of degree d, length MaxDegree + 1
  /// (== graph::DegreeHistogram).
  std::vector<uint64_t> degree_histogram;

  /// Degree-assortativity partial sums over the 2m ordered endpoint pairs,
  /// reduced in node order from per-source-node partials
  /// (stats::DegreeAssortativityFromSums turns them into Newman's r).
  double assort_sum_xy = 0.0;
  double assort_sum_x = 0.0;
  double assort_sum_x2 = 0.0;

  /// Triangle family (FusedOptions::triangles); matches PerNodeTriangles,
  /// LocalClusteringCoefficients, CountTriangles, CountWedges,
  /// AverageLocalClustering and GlobalClusteringCoefficient on the Graph.
  ClusteringStats clustering;

  /// Attributed overload only: k = 2^w and the k x k row-major tallies
  /// over ordered edge endpoints (each edge counted once per direction).
  uint32_t num_configs = 0;
  std::vector<uint64_t> mixing_counts;
  /// Per attribute bit: number of edges whose endpoints agree on it
  /// (length w; derived from the mixing tallies).
  std::vector<uint64_t> homophily_counts;
  /// Connection counts Q_F over unordered config pairs, indexed by
  /// graph::EncodeEdgeConfig (derived from the mixing tallies; ==
  /// agm::ComputeConnectionCounts as exact integers).
  std::vector<uint64_t> connection_counts;
};

/// Structure-only fusion: attribute fields stay empty.
FusedStats FusedEvaluate(const CsrGraph& g, const FusedOptions& opts = {});

/// Full fusion including the mixing-derived attribute families.
FusedStats FusedEvaluate(const AttributedCsrGraph& g,
                         const FusedOptions& opts = {});

}  // namespace agmdp::graph
