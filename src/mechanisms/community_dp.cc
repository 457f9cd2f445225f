#include "src/mechanisms/community_dp.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/dp/exponential_mechanism.h"
#include "src/dp/geometric_mechanism.h"
#include "src/dp/privacy_budget.h"
#include "src/util/alias_sampler.h"

namespace agmdp::mechanisms {

namespace {

util::Status Invalid(const std::string& what) {
  return util::Status::InvalidArgument("community_dp: " + what);
}

// Triangular index of the unordered block pair {i, j}, i <= j, over B
// blocks — the layout of MechanismPayload::block_edges.
size_t PairIndex(size_t i, size_t j, size_t blocks) {
  if (i > j) std::swap(i, j);
  return i * blocks - i * (i - 1) / 2 + (j - i);
}

// Edge capacity of the (i, j) block pair given block sizes.
uint64_t PairCapacity(size_t i, size_t j, const std::vector<uint64_t>& sizes) {
  if (i == j) {
    const uint64_t s = sizes[i];
    return s < 2 ? 0 : s * (s - 1) / 2;
  }
  return sizes[i] * sizes[j];
}

// Block count heuristic when the config leaves it at 0: sqrt(n)/8 keeps
// per-pair capacities dense enough to survive geometric noise at small
// epsilon, clamped to [2, 64] and never beyond n.
uint32_t ResolveBlocks(uint32_t configured, graph::NodeId n) {
  uint64_t blocks = configured;
  if (blocks == 0) {
    blocks = static_cast<uint64_t>(std::llround(std::sqrt(
        static_cast<double>(n)) / 8.0));
    blocks = std::max<uint64_t>(2, std::min<uint64_t>(64, blocks));
  }
  return static_cast<uint32_t>(std::max<uint64_t>(
      1, std::min<uint64_t>(blocks, n)));
}

class CommunitySampler final : public ArtifactSampler {
 public:
  static util::Result<std::unique_ptr<const ArtifactSampler>> Build(
      const pipeline::ReleaseArtifact& artifact) {
    auto sampler = std::make_unique<CommunitySampler>();
    const pipeline::MechanismPayload& payload = artifact.payload;
    sampler->w_ = artifact.params.w;
    sampler->node_blocks_ = payload.node_blocks;
    const size_t blocks = payload.num_blocks;
    sampler->members_.resize(blocks);
    for (graph::NodeId v = 0;
         v < static_cast<graph::NodeId>(payload.node_blocks.size()); ++v) {
      sampler->members_[payload.node_blocks[v]].push_back(v);
    }
    std::vector<uint64_t> sizes(blocks);
    for (size_t b = 0; b < blocks; ++b) {
      sizes[b] = sampler->members_[b].size();
    }
    // Noised counts are clamped to each pair's capacity here (not trusted
    // from the artifact), so a tampered payload can at worst waste time.
    sampler->pair_targets_.resize(payload.block_edges.size());
    for (size_t i = 0; i < blocks; ++i) {
      for (size_t j = i; j < blocks; ++j) {
        const size_t idx = PairIndex(i, j, blocks);
        const uint64_t capacity = PairCapacity(i, j, sizes);
        const double count = std::max(0.0, payload.block_edges[idx]);
        sampler->pair_targets_[idx] = std::min<uint64_t>(
            capacity, static_cast<uint64_t>(std::llround(count)));
      }
    }
    const size_t configs = graph::NumNodeConfigs(sampler->w_);
    sampler->attr_samplers_.reserve(blocks);
    for (size_t b = 0; b < blocks; ++b) {
      std::vector<double> row(
          payload.block_attr.begin() +
              static_cast<std::ptrdiff_t>(b * configs),
          payload.block_attr.begin() +
              static_cast<std::ptrdiff_t>((b + 1) * configs));
      auto alias = util::AliasSampler::Build(row);
      if (!alias.ok()) return alias.status();
      sampler->attr_samplers_.push_back(std::move(alias).value());
    }
    return std::unique_ptr<const ArtifactSampler>(std::move(sampler));
  }

  util::Result<graph::AttributedGraph> Sample(
      util::Rng& rng, int /*refine_iterations*/,
      util::WorkerPool* /*pool*/) const override {
    const auto n = static_cast<graph::NodeId>(node_blocks_.size());
    graph::AttributedGraph out(graph::Graph(n), w_);
    for (graph::NodeId v = 0; v < n; ++v) {
      out.set_attribute(v, static_cast<graph::AttrConfig>(
                               attr_samplers_[node_blocks_[v]].Sample(rng)));
    }
    uint64_t total = 0;
    for (uint64_t target : pair_targets_) total += target;
    out.structure().ReserveEdges(total);
    const size_t blocks = members_.size();
    for (size_t i = 0; i < blocks; ++i) {
      for (size_t j = i; j < blocks; ++j) {
        const uint64_t target = pair_targets_[PairIndex(i, j, blocks)];
        if (target == 0) continue;
        const std::vector<graph::NodeId>& left = members_[i];
        const std::vector<graph::NodeId>& right = members_[j];
        // Rejection sampling of distinct pairs; the capacity clamp keeps
        // the target feasible, and the attempt cap bounds the worst case
        // (a nearly full pair) without biasing typical draws.
        uint64_t added = 0;
        uint64_t attempts = 0;
        const uint64_t max_attempts = 4 * target + 100;
        while (added < target && attempts < max_attempts) {
          ++attempts;
          const graph::NodeId u = left[rng.UniformIndex(left.size())];
          const graph::NodeId v = right[rng.UniformIndex(right.size())];
          if (u == v) continue;
          if (out.structure().AddEdge(u, v)) ++added;
        }
      }
    }
    return out;
  }

  uint64_t ApproxBytes() const override {
    return node_blocks_.size() * sizeof(uint32_t) +
           node_blocks_.size() * sizeof(graph::NodeId) +
           pair_targets_.size() * sizeof(uint64_t) +
           attr_samplers_.size() * (size_t{1} << w_) * 16 +
           sizeof(CommunitySampler);
  }

  int w_ = 0;
  std::vector<uint32_t> node_blocks_;
  std::vector<std::vector<graph::NodeId>> members_;
  std::vector<uint64_t> pair_targets_;
  std::vector<util::AliasSampler> attr_samplers_;
};

}  // namespace

util::Result<pipeline::ReleaseArtifact> FitCommunityDp(
    const graph::AttributedGraph& input, const pipeline::PipelineConfig& config,
    util::Rng& rng, std::vector<agm::StageSeconds>* /*stage_seconds*/) {
  const graph::NodeId n = input.num_nodes();
  if (n == 0) return Invalid("input graph has no nodes");
  const int w = input.num_attributes();
  const size_t configs = graph::NumNodeConfigs(w);
  const uint32_t blocks = ResolveBlocks(config.community_blocks, n);

  dp::PrivacyAccountant accountant(config.epsilon);
  // eps/4 is exact in binary floating point, so the four stage shares sum
  // back to the global epsilon bit for bit.
  const double share = config.epsilon / 4.0;

  // Stage 1: private partition. Deterministic i mod B start, then two
  // sequential exponential-mechanism label-propagation passes. One edge
  // enters at most two per-node selections per pass (its two endpoints),
  // so each selection runs at half the pass share.
  std::vector<uint32_t> labels(n);
  for (graph::NodeId v = 0; v < n; ++v) labels[v] = v % blocks;
  for (int pass = 0; pass < 2; ++pass) {
    if (auto st = accountant.Spend(share,
                                   "partition_pass_" + std::to_string(pass));
        !st.ok()) {
      return st;
    }
    const double per_node_epsilon = share / 2.0;
    std::vector<double> scores(blocks);
    for (graph::NodeId v = 0; v < n; ++v) {
      std::fill(scores.begin(), scores.end(), 0.0);
      for (graph::NodeId u : input.structure().Neighbors(v)) {
        scores[labels[u]] += 1.0;
      }
      auto choice = dp::ExponentialMechanism(scores, /*sensitivity=*/1.0,
                                             per_node_epsilon, rng);
      if (!choice.ok()) return choice.status();
      labels[v] = static_cast<uint32_t>(choice.value());
    }
  }

  std::vector<uint64_t> sizes(blocks, 0);
  for (uint32_t label : labels) ++sizes[label];

  // Stage 2: block-pair edge counts. The pairs partition the edge set, so
  // noising every count at the full stage share is parallel composition.
  if (auto st = accountant.Spend(share, "block_edges"); !st.ok()) return st;
  std::vector<double> block_edges(size_t{blocks} * (blocks + 1) / 2, 0.0);
  input.structure().ForEachEdge([&](graph::NodeId u, graph::NodeId v) {
    block_edges[PairIndex(labels[u], labels[v], blocks)] += 1.0;
  });
  for (size_t i = 0; i < blocks; ++i) {
    for (size_t j = i; j < blocks; ++j) {
      const size_t idx = PairIndex(i, j, blocks);
      const int64_t noised = dp::GeometricMechanism(
          static_cast<int64_t>(block_edges[idx]), /*sensitivity=*/1.0, share,
          rng);
      const auto capacity =
          static_cast<int64_t>(PairCapacity(i, j, sizes));
      block_edges[idx] = static_cast<double>(
          std::max<int64_t>(0, std::min(noised, capacity)));
    }
  }

  // Stage 3: per-block attribute histograms. Blocks partition the node
  // set (parallel composition); changing one node's attributes moves one
  // unit between two buckets of its block's histogram, hence sensitivity 2.
  if (auto st = accountant.Spend(share, "block_attributes"); !st.ok()) {
    return st;
  }
  std::vector<double> block_attr(size_t{blocks} * configs, 0.0);
  for (graph::NodeId v = 0; v < n; ++v) {
    block_attr[size_t{labels[v]} * configs + input.attribute(v)] += 1.0;
  }
  for (size_t b = 0; b < blocks; ++b) {
    double row_sum = 0.0;
    for (size_t y = 0; y < configs; ++y) {
      const size_t idx = b * configs + y;
      const int64_t noised = dp::GeometricMechanism(
          static_cast<int64_t>(block_attr[idx]), /*sensitivity=*/2.0, share,
          rng);
      block_attr[idx] = static_cast<double>(std::max<int64_t>(0, noised));
      row_sum += block_attr[idx];
    }
    if (row_sum <= 0.0) {
      // Noise wiped the whole histogram (possible for tiny blocks at small
      // epsilon); fall back to uniform so the block stays samplable.
      for (size_t y = 0; y < configs; ++y) block_attr[b * configs + y] = 1.0;
    }
  }

  pipeline::ReleaseArtifact artifact =
      pipeline::MakeReleaseArtifact(agm::AgmParams{}, config);
  artifact.mechanism = "community_dp";
  artifact.model = "community_dp";
  artifact.params.w = w;
  artifact.payload.num_blocks = blocks;
  artifact.payload.node_blocks = std::move(labels);
  artifact.payload.block_edges = std::move(block_edges);
  artifact.payload.block_attr = std::move(block_attr);
  artifact.epsilon_budget = accountant.total();
  artifact.epsilon_spent = accountant.spent();
  artifact.ledger = accountant.ledger();
  return artifact;
}

util::Status ValidateCommunityDp(const pipeline::ReleaseArtifact& artifact) {
  const pipeline::MechanismPayload& p = artifact.payload;
  if (p.node_blocks.empty()) {
    return Invalid("payload needs a non-empty node partition");
  }
  if (auto st = ValidateBlockPayload("community_dp", artifact); !st.ok()) {
    return st;
  }
  const size_t blocks = p.num_blocks;
  if (p.block_edges.size() != blocks * (blocks + 1) / 2) {
    return Invalid("block_edges must have one entry per unordered block "
                   "pair");
  }
  for (double count : p.block_edges) {
    if (!std::isfinite(count) || count < 0.0) {
      return Invalid("block_edges must be finite and non-negative");
    }
  }
  return util::Status::OK();
}

util::Result<std::unique_ptr<const ArtifactSampler>> MakeCommunitySampler(
    const pipeline::ReleaseArtifact& artifact,
    const pipeline::EngineOptions& /*options*/, util::WorkerPool* /*pool*/) {
  return CommunitySampler::Build(artifact);
}

}  // namespace agmdp::mechanisms
