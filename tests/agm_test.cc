#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/agm/agm_dp.h"
#include "src/agm/agm_sampler.h"
#include "src/agm/theta_f.h"
#include "src/agm/theta_x.h"
#include "src/datasets/homophily.h"
#include "src/dp/privacy_budget.h"
#include "src/graph/triangle_count.h"
#include "src/models/erdos_renyi.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"

namespace agmdp::agm {
namespace {

// A small attributed graph with known parameters: 4 nodes, w=1.
graph::AttributedGraph TinyGraph() {
  graph::AttributedGraph g(4, 1);
  g.structure().AddEdge(0, 1);
  g.structure().AddEdge(1, 2);
  g.structure().AddEdge(2, 3);
  // attrs: 0 -> 0, 1 -> 1, 2 -> 1, 3 -> 0
  EXPECT_TRUE(g.SetAttributes({0, 1, 1, 0}).ok());
  return g;
}

// A homophilous random attributed graph for statistical tests.
graph::AttributedGraph RandomAttributed(graph::NodeId n, double p, int w,
                                        uint64_t seed) {
  util::Rng rng(seed);
  graph::AttributedGraph g(models::ErdosRenyiGnp(n, p, rng), w);
  std::vector<double> theta_x(graph::NumNodeConfigs(w),
                              1.0 / graph::NumNodeConfigs(w));
  datasets::HomophilyOptions options;
  options.target_same_fraction = 0.6;
  EXPECT_TRUE(
      datasets::AssignHomophilousAttributes(&g, theta_x, options, rng).ok());
  return g;
}

// ----------------------------------------------------------------- ThetaX --

TEST(ThetaXTest, ExactCountsAndDistribution) {
  graph::AttributedGraph g = TinyGraph();
  std::vector<double> counts = ComputeAttributeCounts(g);
  EXPECT_DOUBLE_EQ(counts[0], 2.0);
  EXPECT_DOUBLE_EQ(counts[1], 2.0);
  std::vector<double> theta = ComputeThetaX(g);
  EXPECT_DOUBLE_EQ(theta[0], 0.5);
  EXPECT_DOUBLE_EQ(theta[1], 0.5);
}

TEST(ThetaXTest, DpVersionIsDistribution) {
  util::Rng rng(1);
  graph::AttributedGraph g = RandomAttributed(100, 0.05, 2, 7);
  std::vector<double> theta = LearnAttributesDp(g, 0.5, rng);
  ASSERT_EQ(theta.size(), 4u);
  double sum = std::accumulate(theta.begin(), theta.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (double p : theta) EXPECT_GE(p, 0.0);
}

TEST(ThetaXTest, DpConvergesToExactAtLargeEpsilon) {
  util::Rng rng(2);
  graph::AttributedGraph g = RandomAttributed(500, 0.02, 2, 8);
  std::vector<double> exact = ComputeThetaX(g);
  std::vector<double> noisy = LearnAttributesDp(g, 1000.0, rng);
  EXPECT_LT(stats::MeanAbsoluteError(noisy, exact), 0.001);
}

TEST(ThetaXTest, DpErrorShrinksWithEpsilon) {
  graph::AttributedGraph g = RandomAttributed(300, 0.03, 2, 9);
  std::vector<double> exact = ComputeThetaX(g);
  auto mean_error = [&](double eps, uint64_t seed) {
    util::Rng rng(seed);
    double total = 0.0;
    for (int i = 0; i < 50; ++i) {
      total += stats::MeanAbsoluteError(LearnAttributesDp(g, eps, rng), exact);
    }
    return total / 50;
  };
  EXPECT_LT(mean_error(1.0, 3), mean_error(0.01, 4));
}

TEST(SampleAttributesTest, MatchesMarginal) {
  util::Rng rng(5);
  std::vector<double> theta = {0.7, 0.1, 0.1, 0.1};
  auto attrs = SampleAttributes(theta, 20000, rng);
  ASSERT_TRUE(attrs.ok());
  std::vector<int> counts(4, 0);
  for (auto a : attrs.value()) ++counts[a];
  EXPECT_NEAR(counts[0] / 20000.0, 0.7, 0.02);
  EXPECT_NEAR(counts[2] / 20000.0, 0.1, 0.01);
}

TEST(SampleAttributesTest, FailsOnDegenerateTheta) {
  util::Rng rng(6);
  EXPECT_FALSE(SampleAttributes({0.0, 0.0}, 10, rng).ok());
}

// ----------------------------------------------------------------- ThetaF --

TEST(ThetaFTest, ExactCountsOnTinyGraph) {
  graph::AttributedGraph g = TinyGraph();
  // Edges: (0,1): configs {0,1}; (1,2): {1,1}; (2,3): {1,0}.
  // w=1 edge configs: {0,0} -> 0, {0,1} -> 1, {1,1} -> 2.
  std::vector<double> counts = ComputeConnectionCounts(g);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_DOUBLE_EQ(counts[0], 0.0);
  EXPECT_DOUBLE_EQ(counts[1], 2.0);
  EXPECT_DOUBLE_EQ(counts[2], 1.0);
  std::vector<double> theta = ComputeThetaF(g);
  EXPECT_DOUBLE_EQ(theta[1], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(theta[2], 1.0 / 3.0);
}

TEST(ThetaFTest, EdgelessGraphGivesUniform) {
  graph::AttributedGraph g(5, 1);
  std::vector<double> theta = ComputeThetaF(g);
  for (double p : theta) EXPECT_DOUBLE_EQ(p, 1.0 / 3.0);
}

class ThetaFDpMethodsTest : public ::testing::TestWithParam<int> {
 protected:
  std::vector<double> Learn(const graph::AttributedGraph& g, double eps,
                            util::Rng& rng) {
    switch (GetParam()) {
      case 0:
        return LearnCorrelationsDp(g, eps, /*k=*/0, rng);
      case 1:
        return LearnCorrelationsSmooth(g, eps, 1e-6, rng);
      case 2:
        return LearnCorrelationsSampleAggregate(g, eps, 25, rng);
      default:
        return LearnCorrelationsNaive(g, eps, rng);
    }
  }
};

TEST_P(ThetaFDpMethodsTest, ProducesValidDistribution) {
  util::Rng rng(10);
  graph::AttributedGraph g = RandomAttributed(200, 0.05, 2, 11);
  std::vector<double> theta = Learn(g, 0.5, rng);
  ASSERT_EQ(theta.size(), 10u);  // C(5,2) for w=2
  double sum = std::accumulate(theta.begin(), theta.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (double p : theta) EXPECT_GE(p, 0.0);
}

TEST_P(ThetaFDpMethodsTest, ErrorShrinksWithEpsilon) {
  graph::AttributedGraph g = RandomAttributed(400, 0.03, 2, 12);
  std::vector<double> exact = ComputeThetaF(g);
  auto mean_error = [&](double eps, uint64_t seed) {
    util::Rng rng(seed);
    double total = 0.0;
    for (int i = 0; i < 30; ++i) {
      total += stats::MeanAbsoluteError(Learn(g, eps, rng), exact);
    }
    return total / 30;
  };
  EXPECT_LE(mean_error(2.0, 13), mean_error(0.02, 14) + 1e-3);
}

std::string ThetaFMethodName(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"EdgeTruncation", "Smooth", "SampleAggregate",
                                 "Naive"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ThetaFDpMethodsTest,
                         ::testing::Values(0, 1, 2, 3), ThetaFMethodName);

TEST(ThetaFComparisonTest, TruncationBeatsNaiveBaseline) {
  // Figure 5's qualitative claim at moderate epsilon on a small graph.
  graph::AttributedGraph g = RandomAttributed(300, 0.04, 2, 15);
  std::vector<double> exact = ComputeThetaF(g);
  util::Rng rng(16);
  double err_trunc = 0.0, err_naive = 0.0;
  for (int i = 0; i < 40; ++i) {
    err_trunc += stats::MeanAbsoluteError(
        LearnCorrelationsDp(g, 0.3, 0, rng), exact);
    err_naive += stats::MeanAbsoluteError(
        LearnCorrelationsNaive(g, 0.3, rng), exact);
  }
  EXPECT_LT(err_trunc, err_naive);
}

TEST(ThetaFTest, NodeDpVariantIsValidDistribution) {
  util::Rng rng(17);
  graph::AttributedGraph g = RandomAttributed(200, 0.05, 2, 18);
  std::vector<double> theta = LearnCorrelationsNodeDp(g, 0.7, 0.01, 0, rng);
  double sum = std::accumulate(theta.begin(), theta.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// ------------------------------------------------- Acceptance probabilities --

TEST(AcceptanceTest, UniformWhenObservedMatchesTarget) {
  std::vector<double> target = {0.5, 0.3, 0.2};
  std::vector<double> acceptance =
      ComputeAcceptanceProbabilities(target, target, {}, 1e-3);
  for (double a : acceptance) EXPECT_NEAR(a, 1.0, 1e-9);
}

TEST(AcceptanceTest, UnderrepresentedConfigGetsHighestAcceptance) {
  std::vector<double> target = {0.6, 0.2, 0.2};
  std::vector<double> observed = {0.2, 0.4, 0.4};
  std::vector<double> acceptance =
      ComputeAcceptanceProbabilities(target, observed, {}, 1e-3);
  EXPECT_DOUBLE_EQ(acceptance[0], 1.0);  // ratio 3 is the sup
  EXPECT_NEAR(acceptance[1], 0.5 / 3.0, 1e-9);
}

TEST(AcceptanceTest, CarriesOldAcceptanceForward) {
  std::vector<double> target = {0.5, 0.5};
  std::vector<double> observed = {0.5, 0.5};
  std::vector<double> a_old = {1.0, 0.5};
  std::vector<double> acceptance =
      ComputeAcceptanceProbabilities(target, observed, a_old, 1e-3);
  EXPECT_DOUBLE_EQ(acceptance[0], 1.0);
  EXPECT_DOUBLE_EQ(acceptance[1], 0.5);
}

TEST(AcceptanceTest, ZeroObservedWithDemandGetsTopRatio) {
  std::vector<double> target = {0.5, 0.5};
  std::vector<double> observed = {1.0, 0.0};
  std::vector<double> acceptance =
      ComputeAcceptanceProbabilities(target, observed, {}, 1e-3);
  EXPECT_DOUBLE_EQ(acceptance[1], 1.0);  // missing config maxed out
}

TEST(AcceptanceTest, DeadConfigStaysDead) {
  std::vector<double> target = {1.0, 0.0};
  std::vector<double> observed = {0.5, 0.5};
  std::vector<double> acceptance =
      ComputeAcceptanceProbabilities(target, observed, {}, 1e-3);
  EXPECT_DOUBLE_EQ(acceptance[1], 0.0);  // no demand, no floor
}

// -------------------------------------------------------------- AGM sampler --

TEST(AgmSamplerTest, LearnParamsExact) {
  graph::AttributedGraph g = TinyGraph();
  AgmParams params = LearnAgmParams(g);
  EXPECT_EQ(params.w, 1);
  EXPECT_EQ(params.degree_sequence, (std::vector<uint32_t>{1, 2, 2, 1}));
  EXPECT_EQ(params.target_triangles, 0u);
  EXPECT_DOUBLE_EQ(params.theta_x[0], 0.5);
}

TEST(AgmSamplerTest, ValidatesDimensions) {
  util::Rng rng(20);
  AgmParams params;
  params.w = 2;
  params.theta_x = {1.0};  // wrong size for w=2
  params.theta_f = std::vector<double>(10, 0.1);
  params.degree_sequence = {1, 1};
  EXPECT_FALSE(SampleAgmGraph(params, AgmSampleOptions{}, rng).ok());
}

TEST(AgmSamplerTest, AcceptanceIterationsImproveCorrelations) {
  // The accept/reject loop is what pulls Θ'F toward the target; compare the
  // filtered pipeline against the structural model alone (0 iterations).
  graph::AttributedGraph g = RandomAttributed(400, 0.03, 2, 21);
  AgmParams params = LearnAgmParams(g);
  AgmSampleOptions no_filter;
  no_filter.model = StructuralModelKind::kFcl;
  no_filter.acceptance_iterations = 0;
  AgmSampleOptions filtered = no_filter;
  filtered.acceptance_iterations = 5;

  double err_plain = 0.0, err_filtered = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    util::Rng rng(22 + trial);
    auto a = SampleAgmGraph(params, no_filter, rng);
    auto b = SampleAgmGraph(params, filtered, rng);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.value().num_nodes(), 400u);
    EXPECT_GT(b.value().num_edges(), 0u);
    err_plain += stats::HellingerDistance(ComputeThetaF(a.value()),
                                          params.theta_f);
    err_filtered += stats::HellingerDistance(ComputeThetaF(b.value()),
                                             params.theta_f);
  }
  EXPECT_LT(err_filtered, err_plain);
}

TEST(AgmSamplerTest, TriCycLePipelineApproachesTriangleTarget) {
  graph::AttributedGraph g = RandomAttributed(200, 0.06, 2, 23);
  AgmParams params = LearnAgmParams(g);
  AgmSampleOptions options;
  options.model = StructuralModelKind::kTriCycLe;
  options.acceptance_iterations = 2;
  util::Rng rng(24);
  auto synthetic = SampleAgmGraph(params, options, rng);
  ASSERT_TRUE(synthetic.ok());
  const uint64_t achieved =
      graph::CountTriangles(synthetic.value().structure());
  EXPECT_GT(achieved, params.target_triangles / 3);
}

// ------------------------------------------------------------------ AGM-DP --

// Algorithm 3 on the agm layer: LearnAgmParamsDp under a fresh accountant,
// then SampleAgmGraph (pure post-processing) with the learner's model.
struct AgmDpRun {
  graph::AttributedGraph graph;
  AgmParams params;
  std::vector<std::pair<std::string, double>> ledger;
};

util::Result<AgmDpRun> RunAgmDp(const graph::AttributedGraph& input,
                                const AgmDpOptions& options, util::Rng& rng,
                                int acceptance_iterations = 1) {
  dp::PrivacyAccountant accountant(options.epsilon);
  auto params = LearnAgmParamsDp(input, options, accountant, rng);
  if (!params.ok()) return params.status();
  AgmSampleOptions sample;
  sample.model = options.model;
  sample.acceptance_iterations = acceptance_iterations;
  auto synthetic = SampleAgmGraph(params.value(), sample, rng);
  if (!synthetic.ok()) return synthetic.status();
  return AgmDpRun{std::move(synthetic).value(), std::move(params).value(),
                  accountant.ledger()};
}

TEST(AgmDpTest, ValidatesOptions) {
  util::Rng rng(25);
  graph::AttributedGraph g = RandomAttributed(50, 0.1, 2, 26);
  AgmDpOptions options;
  options.epsilon = 0.0;
  dp::PrivacyAccountant accountant(1.0);
  EXPECT_FALSE(LearnAgmParamsDp(g, options, accountant, rng).ok());

  options.epsilon = 1.0;
  options.split.theta_x = 2.0;  // exceeds epsilon
  options.split.theta_f = 0.1;
  options.split.degree_seq = 0.1;
  options.split.triangles = 0.1;
  EXPECT_FALSE(LearnAgmParamsDp(g, options, accountant, rng).ok());
  EXPECT_EQ(accountant.spent(), 0.0);
}

TEST(AgmDpTest, LedgerSumsToBudget) {
  util::Rng rng(27);
  graph::AttributedGraph g = RandomAttributed(150, 0.05, 2, 28);
  AgmDpOptions options;
  options.epsilon = 0.8;
  auto result = RunAgmDp(g, options, rng);
  ASSERT_TRUE(result.ok());
  double spent = 0.0;
  for (const auto& [label, eps] : result.value().ledger) spent += eps;
  EXPECT_NEAR(spent, 0.8, 1e-9);
  EXPECT_EQ(result.value().ledger.size(), 4u);  // TriCycLe: 4 params
}

TEST(AgmDpTest, FclLedgerHasThreeSpends) {
  util::Rng rng(29);
  graph::AttributedGraph g = RandomAttributed(150, 0.05, 2, 30);
  AgmDpOptions options;
  options.epsilon = 0.8;
  options.model = StructuralModelKind::kFcl;
  auto result = RunAgmDp(g, options, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().ledger.size(), 3u);
  double degree_share = 0.0;
  for (const auto& [label, eps] : result.value().ledger) {
    if (label == "degree_sequence") degree_share = eps;
  }
  EXPECT_DOUBLE_EQ(degree_share, 0.4);  // half the budget
}

TEST(AgmDpTest, OutputPreservesNodeCountAndW) {
  util::Rng rng(31);
  graph::AttributedGraph g = RandomAttributed(120, 0.06, 2, 32);
  AgmDpOptions options;
  options.epsilon = 1.0;
  auto result = RunAgmDp(g, options, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().graph.num_nodes(), 120u);
  EXPECT_EQ(result.value().graph.num_attributes(), 2);
}

TEST(AgmDpTest, DeterministicGivenSeed) {
  graph::AttributedGraph g = RandomAttributed(100, 0.06, 2, 33);
  AgmDpOptions options;
  options.epsilon = 0.5;
  util::Rng rng1(99), rng2(99);
  auto r1 = RunAgmDp(g, options, rng1);
  auto r2 = RunAgmDp(g, options, rng2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().graph.structure().CanonicalEdges(),
            r2.value().graph.structure().CanonicalEdges());
  EXPECT_EQ(r1.value().graph.attributes(), r2.value().graph.attributes());
}

TEST(AgmDpTest, NonPrivateBaselineRuns) {
  util::Rng rng(34);
  graph::AttributedGraph g = RandomAttributed(100, 0.06, 2, 35);
  AgmSampleOptions options;
  options.model = StructuralModelKind::kFcl;
  auto result = SampleAgmGraph(LearnAgmParams(g), options, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_nodes(), 100u);
}

TEST(AgmDpTest, AllThetaFMethodsRunEndToEnd) {
  graph::AttributedGraph g = RandomAttributed(100, 0.06, 2, 36);
  for (ThetaFMethod method :
       {ThetaFMethod::kEdgeTruncation, ThetaFMethod::kSmoothSensitivity,
        ThetaFMethod::kSampleAggregate, ThetaFMethod::kNaiveLaplace}) {
    util::Rng rng(37);
    AgmDpOptions options;
    options.epsilon = 1.0;
    options.theta_f_method = method;
    auto result = RunAgmDp(g, options, rng);
    EXPECT_TRUE(result.ok()) << "method " << static_cast<int>(method);
  }
}

}  // namespace
}  // namespace agmdp::agm
