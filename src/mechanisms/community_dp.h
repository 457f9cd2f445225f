// community_dp: a community-preserving differentially private release in
// the style of Chen-Mauw-Ramirez-Cruz (arXiv:1909.00280).
//
// Fit pipeline, every stage charged through one dp::PrivacyAccountant
// (sequential composition; the exact power-of-two shares sum to the global
// epsilon):
//
//   1. Private partition (eps/2, two label-propagation passes at eps/4
//      each): nodes start at block i mod B, then each pass re-assigns
//      every node via the exponential mechanism over its per-block
//      neighbor counts (sensitivity 1; one edge participates in at most
//      two selections per pass, so a pass composes to its eps/4 share).
//   2. Block-pair edge counts (eps/4): the edge count of every unordered
//      block pair noised with the two-sided geometric mechanism. The
//      pairs partition the edge set, so parallel composition applies —
//      the whole stage costs one eps/4.
//   3. Per-block attribute histograms (eps/4): counts of each attribute
//      configuration per block, geometric noise at sensitivity 2 (one
//      node's attribute change moves one unit between two buckets);
//      blocks partition the node set, so parallel composition again.
//
// Sampling reconstructs a graph from the noised block model: attributes
// drawn per node from its block's histogram, then each block pair filled
// with its noised count of distinct random edges.
#pragma once

#include <memory>
#include <vector>

#include "src/mechanisms/release_mechanism.h"

namespace agmdp::mechanisms {

util::Result<pipeline::ReleaseArtifact> FitCommunityDp(
    const graph::AttributedGraph& input, const pipeline::PipelineConfig& config,
    util::Rng& rng, std::vector<agm::StageSeconds>* stage_seconds);

/// Payload rules: a non-empty private partition into num_blocks
/// communities, one finite non-negative noised count per unordered block
/// pair (B(B+1)/2 of them), and the shared block-histogram checks
/// (ValidateBlockPayload).
util::Status ValidateCommunityDp(const pipeline::ReleaseArtifact& artifact);

util::Result<std::unique_ptr<const ArtifactSampler>> MakeCommunitySampler(
    const pipeline::ReleaseArtifact& artifact,
    const pipeline::EngineOptions& options, util::WorkerPool* pool);

}  // namespace agmdp::mechanisms
