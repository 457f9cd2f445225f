// One-stop structural summary of a graph (the columns of Table 6) and the
// per-trial error record used by the Tables 2-5 harness.
#pragma once

#include <cstdint>
#include <string>

#include "src/graph/csr.h"

namespace agmdp::stats {

struct GraphSummary {
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint32_t max_degree = 0;
  double avg_degree = 0.0;
  uint64_t triangles = 0;
  double avg_local_clustering = 0.0;
  double global_clustering = 0.0;
};

/// Table 6 columns of a snapshot, with the triangle work parallelized over
/// `threads` workers (<= 0 selects the available cores).
GraphSummary Summarize(const graph::CsrGraph& g, int threads = 1);

/// Fixed-width single-line rendering, e.g. for Table 6 style output.
std::string FormatSummary(const std::string& name, const GraphSummary& s);

/// The error columns of Tables 2-5, comparing a synthetic graph against the
/// original input (Section 5.1 statistics). Computed by
/// eval::EvaluateRelease (UtilityReport::errors).
struct UtilityErrors {
  // ΘF column. The paper's text says MRE but the reported magnitudes (and
  // Figures 1/5) match the MAE of the correlation probability vectors, so
  // MAE is what we compute; see EXPERIMENTS.md.
  double theta_f_mae = 0.0;
  double theta_f_hellinger = 0.0;  // HΘF
  double degree_ks = 0.0;       // KS_S
  double degree_hellinger = 0.0;   // H_S
  double triangles_re = 0.0;    // n∆ (relative error)
  double avg_clustering_re = 0.0;  // C̄
  double global_clustering_re = 0.0;  // C
  double edges_re = 0.0;        // m
};

}  // namespace agmdp::stats
