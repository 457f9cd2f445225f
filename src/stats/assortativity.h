// Assortativity coefficients: degree assortativity (Newman's r) and
// attribute assortativity. Homophily ("birds of a feather", the phenomenon
// ΘF models) is exactly positive attribute assortativity, so these are the
// natural held-out statistics for judging whether AGM-DP preserved the
// correlations it never directly optimized.
//
// Summation contract (shared by these Graph kernels and the fused CSR
// kernel, graph/fused_eval.h, so they agree bitwise): floating-point edge
// terms accumulate into a per-source-node partial over the node's
// ascending-sorted forward neighbors, and the partials reduce sequentially
// in node order. Mixing-matrix and homophily tallies are integers, so any
// partition of the fused kernel reduces to the same result.
#pragma once

#include <vector>

#include <cstdint>

#include "src/graph/attributed_graph.h"
#include "src/graph/graph.h"

namespace agmdp::stats {

/// Pearson correlation of endpoint degrees over edges, in [-1, 1]. Returns
/// 0 for degenerate graphs (no edges / constant degrees).
double DegreeAssortativity(const graph::Graph& g);

/// Newman's discrete assortativity for the node attribute configuration:
/// (tr(e) - sum(e^2)) / (1 - sum(e^2)) where e is the normalized mixing
/// matrix over edges. 1 = perfect homophily, 0 = no correlation, negative =
/// heterophily. Returns 0 for edgeless graphs or single-category mixes.
double AttributeAssortativity(const graph::AttributedGraph& g);

/// Per-attribute homophily: for each of the w attribute bits, the fraction
/// of edges whose endpoints agree on that bit. Length num_attributes();
/// every entry is 0 for edgeless graphs.
std::vector<double> PerAttributeHomophily(const graph::AttributedGraph& g);

// Finalizers of the fused kernel (graph/fused_eval.h): its sweep produces
// the same node-order-reduced partial sums and integer tallies the kernels
// above accumulate, and these tails share their formula bodies.

/// Pearson correlation over the 2m ordered endpoint pairs from the three
/// accumulated degree sums; 0 for edgeless or constant-degree graphs.
double DegreeAssortativityFromSums(double sum_xy, double sum_x,
                                   double sum_x2, uint64_t num_edges);

/// Newman's coefficient from the k x k row-major integer tallies over
/// ordered edge endpoints; 0 for edgeless graphs or single-category mixes.
double AttributeAssortativityFromMixingCounts(
    const std::vector<uint64_t>& counts, uint32_t k, uint64_t num_edges);

/// Same-value edge fraction per attribute bit from per-bit agreement
/// tallies; every entry is 0 for edgeless graphs.
std::vector<double> PerAttributeHomophilyFromCounts(
    const std::vector<uint64_t>& counts, uint64_t num_edges);

}  // namespace agmdp::stats
