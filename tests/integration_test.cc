// End-to-end integration tests: dataset generation -> AGM-DP release
// (pipeline::RunPrivateRelease) -> utility evaluation -> persistence, i.e.
// the full workflow of Figure 4.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "src/agm/theta_f.h"
#include "src/datasets/datasets.h"
#include "src/eval/utility_report.h"
#include "src/graph/graph_io.h"
#include "src/pipeline/release_pipeline.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"

namespace agmdp {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Half-scale Last.fm: large enough that Ladder noise on the triangle
    // count stays well below the FCL-vs-TriCycLe clustering gap.
    auto g = datasets::GenerateDataset(datasets::DatasetId::kLastFm, 0.5, 7);
    ASSERT_TRUE(g.ok());
    input_ = new graph::AttributedGraph(std::move(g).value());
  }
  static void TearDownTestSuite() {
    delete input_;
    input_ = nullptr;
  }

  static graph::AttributedGraph* input_;
};

graph::AttributedGraph* EndToEndTest::input_ = nullptr;

TEST_F(EndToEndTest, TriCycLePipelinePreservesUtility) {
  util::Rng rng(101);
  pipeline::PipelineConfig config;
  config.epsilon = std::log(3.0);
  config.sample.acceptance_iterations = 2;
  auto result = pipeline::RunPrivateRelease(*input_, config, rng);
  ASSERT_TRUE(result.ok());

  const stats::UtilityErrors errors =
      eval::EvaluateRelease(*input_, result.value().graph).errors;
  // Coarse utility gates mirroring the shape of Table 2 at eps = ln 3 (wide
  // tolerances: a single trial on a quarter-scale stand-in).
  EXPECT_LT(errors.theta_f_hellinger, 0.45);
  EXPECT_LT(errors.degree_ks, 0.35);
  EXPECT_LT(errors.edges_re, 0.30);
  // The uniform-ΘF baseline should be beaten.
  std::vector<double> uniform(10, 0.1);
  const double baseline = stats::HellingerDistance(
      uniform, agm::ComputeThetaF(*input_));
  EXPECT_LT(errors.theta_f_hellinger, baseline + 0.05);
}

TEST_F(EndToEndTest, TriCycLeBeatsFclOnClustering) {
  // The paper's headline: TriCycLe reproduces clustering, FCL cannot.
  util::Rng rng(103);
  pipeline::PipelineConfig tri;
  tri.epsilon = std::log(3.0);
  tri.sample.acceptance_iterations = 2;
  pipeline::PipelineConfig fcl = tri;
  fcl.model = "fcl";

  const eval::ReferenceProfile original = eval::ProfileReference(*input_);
  double tri_err = 0.0, fcl_err = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    auto rt = pipeline::RunPrivateRelease(*input_, tri, rng);
    auto rf = pipeline::RunPrivateRelease(*input_, fcl, rng);
    ASSERT_TRUE(rt.ok());
    ASSERT_TRUE(rf.ok());
    tri_err +=
        eval::EvaluateRelease(original, rt.value().graph).errors.triangles_re;
    fcl_err +=
        eval::EvaluateRelease(original, rf.value().graph).errors.triangles_re;
  }
  EXPECT_LT(tri_err, fcl_err);
}

TEST_F(EndToEndTest, SyntheticGraphRoundTripsThroughDisk) {
  util::Rng rng(105);
  pipeline::PipelineConfig config;
  config.epsilon = 1.0;
  config.sample.acceptance_iterations = 1;
  auto result = pipeline::RunPrivateRelease(*input_, config, rng);
  ASSERT_TRUE(result.ok());

  const std::string prefix = testing::TempDir() + "/synthetic_release";
  ASSERT_TRUE(graph::WriteAttributedGraph(result.value().graph, prefix).ok());
  auto back = graph::ReadAttributedGraph(prefix);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_edges(), result.value().graph.num_edges());
  EXPECT_EQ(back.value().attributes(), result.value().graph.attributes());
  std::remove((prefix + ".edges").c_str());
  std::remove((prefix + ".attrs").c_str());
}

TEST_F(EndToEndTest, StrongerPrivacyDegradesGracefully) {
  // Across a 50x epsilon range the error should not blow up catastrophically
  // and should generally grow as epsilon shrinks.
  const eval::ReferenceProfile original = eval::ProfileReference(*input_);
  double err_weak = 0.0, err_strong = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    util::Rng rng(200 + trial);
    pipeline::PipelineConfig weak;
    weak.epsilon = 5.0;
    weak.sample.acceptance_iterations = 1;
    pipeline::PipelineConfig strong = weak;
    strong.epsilon = 0.1;
    auto rw = pipeline::RunPrivateRelease(*input_, weak, rng);
    auto rs = pipeline::RunPrivateRelease(*input_, strong, rng);
    ASSERT_TRUE(rw.ok());
    ASSERT_TRUE(rs.ok());
    err_weak += eval::EvaluateRelease(original, rw.value().graph)
                    .errors.theta_f_hellinger;
    err_strong += eval::EvaluateRelease(original, rs.value().graph)
                      .errors.theta_f_hellinger;
  }
  EXPECT_LT(err_weak, err_strong);
}

TEST(IntegrationSmokeTest, AllDatasetsGenerateAtSmallScale) {
  for (datasets::DatasetId id : datasets::AllDatasets()) {
    const double scale =
        id == datasets::DatasetId::kPokec ? 0.004 : 0.15;
    auto g = datasets::GenerateDataset(id, scale, 3);
    ASSERT_TRUE(g.ok()) << datasets::PaperSpec(id).name;
    EXPECT_GT(g.value().num_edges(), 0u);
  }
}

}  // namespace
}  // namespace agmdp
