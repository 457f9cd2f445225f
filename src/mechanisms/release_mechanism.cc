#include "src/mechanisms/release_mechanism.h"

#include <cmath>

#include "src/mechanisms/agm_mechanism.h"
#include "src/mechanisms/community_dp.h"
#include "src/mechanisms/kanon_baseline.h"

namespace agmdp::mechanisms {

namespace {

std::vector<MechanismSpec> BuildRegistry() {
  std::vector<MechanismSpec> specs;

  {
    MechanismSpec spec;
    spec.name = "agm";
    spec.description =
        "the paper's AGM pipeline: DP theta_x/theta_f/degree-sequence fit, "
        "structural-model sampling (edge-DP; node-DP theta_f variants via "
        "theta_f_method)";
    spec.privacy_model = PrivacyModel::kEdgeDp;
    spec.fit = FitAgm;
    spec.validate = ValidateAgm;
    spec.make_sampler = AgmSampler::Build;
    specs.push_back(std::move(spec));
  }

  {
    MechanismSpec spec;
    spec.name = "community_dp";
    spec.description =
        "community-preserving DP release: exponential-mechanism partition, "
        "geometric-noised per-block edge/attribute model (edge-DP)";
    spec.privacy_model = PrivacyModel::kEdgeDp;
    spec.fit = FitCommunityDp;
    spec.validate = ValidateCommunityDp;
    spec.make_sampler = MakeCommunitySampler;
    specs.push_back(std::move(spec));
  }

  {
    MechanismSpec spec;
    spec.name = "kanon_baseline";
    spec.description =
        "degree k-anonymization with t-closeness on attributes: syntactic "
        "protection, zero epsilon spend";
    spec.privacy_model = PrivacyModel::kSyntactic;
    spec.fit = FitKanonBaseline;
    spec.validate = ValidateKanonBaseline;
    spec.make_sampler = MakeKanonSampler;
    specs.push_back(std::move(spec));
  }

  return specs;
}

const std::vector<MechanismSpec>& Registry() {
  static const std::vector<MechanismSpec>* registry =
      new std::vector<MechanismSpec>(BuildRegistry());
  return *registry;
}

}  // namespace

const char* PrivacyModelName(PrivacyModel model) {
  switch (model) {
    case PrivacyModel::kEdgeDp:
      return "edge_dp";
    case PrivacyModel::kNodeDp:
      return "node_dp";
    case PrivacyModel::kSyntactic:
      return "syntactic";
  }
  return "unknown";
}

const MechanismSpec* FindMechanism(const std::string& name) {
  for (const MechanismSpec& spec : Registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> MechanismNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const MechanismSpec& spec : Registry()) names.push_back(spec.name);
  return names;
}

std::string MechanismNameList() {
  std::string out;
  for (const MechanismSpec& spec : Registry()) {
    if (!out.empty()) out += ", ";
    out += spec.name;
  }
  return out;
}

util::Status ValidateBlockPayload(const std::string& tag,
                                  const pipeline::ReleaseArtifact& artifact) {
  auto invalid = [&tag](const std::string& what) {
    return util::Status::InvalidArgument(tag + ": " + what);
  };
  const pipeline::MechanismPayload& p = artifact.payload;
  if (p.num_blocks == 0) return invalid("payload needs num_blocks >= 1");
  for (uint32_t block : p.node_blocks) {
    if (block >= p.num_blocks) {
      return invalid("node_blocks entry out of range");
    }
  }
  if (artifact.params.w < 0 || artifact.params.w > 20) {
    return invalid("payload needs 0 <= w <= 20");
  }
  const size_t configs = size_t{1} << artifact.params.w;
  if (p.block_attr.size() != size_t{p.num_blocks} * configs) {
    return invalid("block_attr must be num_blocks * 2^w");
  }
  for (size_t b = 0; b < p.num_blocks; ++b) {
    double row_sum = 0.0;
    for (size_t y = 0; y < configs; ++y) {
      const double mass = p.block_attr[b * configs + y];
      if (!std::isfinite(mass) || mass < 0.0) {
        return invalid("block_attr must be finite and non-negative");
      }
      row_sum += mass;
    }
    if (row_sum <= 0.0) {
      return invalid("block_attr row " + std::to_string(b) + " has no mass");
    }
  }
  return util::Status::OK();
}

}  // namespace agmdp::mechanisms
