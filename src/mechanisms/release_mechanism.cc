#include "src/mechanisms/release_mechanism.h"

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

}  // namespace agmdp::mechanisms
