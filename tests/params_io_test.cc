// Regression tests for agm::ValidateAgmParams, the "agm" mechanism's
// artifact rule: NaN, negative and infinite theta entries, dimension
// mismatches, an overflowing w and an empty degree sequence must come back
// as util::Status errors — never reach the sampler as garbage AgmParams.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/agm/agm_sampler.h"

namespace agmdp::agm {
namespace {

AgmParams ValidParams() {
  AgmParams params;
  params.w = 2;
  params.theta_x = {0.4, 0.3, 0.2, 0.1};
  params.theta_f.assign(10, 0.1);
  params.degree_sequence = {1, 2, 2, 3, 7};
  params.target_triangles = 9;
  return params;
}

TEST(ParamsValidationTest, AcceptsValidParams) {
  EXPECT_TRUE(ValidateAgmParams(ValidParams()).ok());
}

TEST(ParamsValidationTest, RejectsNanNegativeAndMismatchedParams) {
  AgmParams params = ValidParams();
  params.theta_x[1] = std::nan("");
  EXPECT_FALSE(ValidateAgmParams(params).ok());

  params = ValidParams();
  params.theta_f[3] = -0.5;
  EXPECT_FALSE(ValidateAgmParams(params).ok());

  params = ValidParams();
  params.theta_x[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidateAgmParams(params).ok());

  params = ValidParams();
  params.w = 21;
  EXPECT_FALSE(ValidateAgmParams(params).ok());

  // Regression: at w = 17 the true edge-config count (8,590,000,128)
  // overflows NumEdgeConfigs's uint32 range and truncates to 65,536. A
  // crafted parameter set sized to the *truncated* dimensions used to pass
  // validation and drive out-of-bounds theta_f reads in the sampler; the
  // w <= 16 cap must reject it outright.
  params = ValidParams();
  params.w = 17;
  params.theta_x.assign(131072, 1.0 / 131072);  // NumNodeConfigs(17)
  params.theta_f.assign(65536, 1.0 / 65536);    // truncated NumEdgeConfigs
  EXPECT_FALSE(ValidateAgmParams(params).ok());

  params = ValidParams();
  params.degree_sequence.clear();
  EXPECT_FALSE(ValidateAgmParams(params).ok());
}

}  // namespace
}  // namespace agmdp::agm
