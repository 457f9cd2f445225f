// Contract tests for the unified release pipeline: budget-ledger exactness
// across every registered structural model, thread-count invariance of the
// sampler (the determinism contract of DESIGN.md), and registry behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/agm/agm_sampler.h"
#include "src/agm/theta_f.h"
#include "src/datasets/datasets.h"
#include "src/mechanisms/release_mechanism.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/server/protocol.h"
#include "src/util/rng.h"

namespace agmdp {
namespace {

const graph::AttributedGraph& Input() {
  static const graph::AttributedGraph* input = [] {
    auto g = datasets::GenerateDataset(datasets::DatasetId::kPetster, 0.2, 3);
    AGMDP_CHECK_MSG(g.ok(), g.status().ToString().c_str());
    return new graph::AttributedGraph(std::move(g).value());
  }();
  return *input;
}

bool SameGraph(const graph::AttributedGraph& a,
               const graph::AttributedGraph& b) {
  return a.num_nodes() == b.num_nodes() &&
         a.attributes() == b.attributes() &&
         a.structure().CanonicalEdges() == b.structure().CanonicalEdges();
}

// ------------------------------------------------------------- registry --

TEST(ModelRegistryTest, AllModelsRegisteredAndResolvable) {
  const std::vector<std::string> names = pipeline::StructuralModelNames();
  for (const char* expected :
       {"tricycle", "fcl", "bter", "holme_kim", "erdos_renyi"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
    EXPECT_NE(pipeline::FindStructuralModel(expected), nullptr) << expected;
  }
  EXPECT_EQ(pipeline::FindStructuralModel("no_such_model"), nullptr);
}

TEST(ModelRegistryTest, UnknownModelFailsCleanly) {
  pipeline::PipelineConfig config;
  config.model = "no_such_model";
  util::Rng rng(1);
  auto result = pipeline::RunPrivateRelease(Input(), config, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  // The error lists the registered names to guide the caller.
  EXPECT_NE(result.status().message().find("tricycle"), std::string::npos);
}

// ------------------------------------------------------- budget ledgers --

// The tentpole invariant: for every registered model, the spends recorded
// by RunPrivateRelease sum to exactly the configured global epsilon.
TEST(ReleasePipelineTest, LedgerSumsExactlyToEpsilonForEveryModel) {
  for (const std::string& model : pipeline::StructuralModelNames()) {
    pipeline::PipelineConfig config;
    config.epsilon = std::log(2.0);
    config.model = model;
    config.sample.acceptance_iterations = 1;
    util::Rng rng(7);
    auto result = pipeline::RunPrivateRelease(Input(), config, rng);
    ASSERT_TRUE(result.ok()) << model << ": " << result.status().ToString();

    double sum = 0.0;
    for (const auto& [label, eps] : result.value().ledger) {
      EXPECT_GT(eps, 0.0) << model << "/" << label;
      sum += eps;
    }
    EXPECT_DOUBLE_EQ(sum, config.epsilon) << model;
    EXPECT_DOUBLE_EQ(result.value().epsilon_spent, config.epsilon) << model;
    EXPECT_DOUBLE_EQ(result.value().epsilon_budget, config.epsilon) << model;

    // Models with a triangle target spend on four stages, the rest on three.
    const bool triangles =
        pipeline::FindStructuralModel(model)->needs_triangles;
    EXPECT_EQ(result.value().ledger.size(), triangles ? 4u : 3u) << model;

    // Well-formed release.
    EXPECT_EQ(result.value().graph.num_nodes(), Input().num_nodes());
    EXPECT_GT(result.value().graph.num_edges(), 0u) << model;
    EXPECT_EQ(result.value().model, model);
  }
}

TEST(ReleasePipelineTest, FitAloneCarriesFullLedgerAndStageTimings) {
  pipeline::PipelineConfig config;
  config.epsilon = 1.0;
  config.model = "tricycle";
  util::Rng rng(11);
  auto fit = pipeline::FitReleaseArtifact(Input(), config, rng);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();

  double sum = 0.0;
  for (const auto& [label, eps] : fit.value().ledger) sum += eps;
  EXPECT_DOUBLE_EQ(sum, config.epsilon);
  EXPECT_EQ(fit.value().params.degree_sequence.size(), Input().num_nodes());

  // The per-stage fit timings come through the registry fit, and the same
  // stream gives the same release with or without them.
  std::vector<agm::StageSeconds> stages;
  util::Rng timed_rng(11);
  auto timed = mechanisms::FindMechanism("agm")->fit(Input(), config,
                                                     timed_rng, &stages);
  ASSERT_TRUE(timed.ok()) << timed.status().ToString();
  ASSERT_EQ(stages.size(), 4u);
  EXPECT_EQ(stages[0].stage, "theta_x");
  EXPECT_EQ(stages[3].stage, "triangles");
  EXPECT_EQ(pipeline::ReleaseArtifactToJson(timed.value()),
            pipeline::ReleaseArtifactToJson(fit.value()));
}

TEST(ReleasePipelineTest, ReleaseRecordsSampleStageAndTotalTime) {
  pipeline::PipelineConfig config;
  config.model = "fcl";
  config.sample.acceptance_iterations = 1;
  util::Rng rng(13);
  auto result = pipeline::RunPrivateRelease(Input(), config, rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().stage_seconds.empty());
  EXPECT_EQ(result.value().stage_seconds.back().stage, "sample");
  EXPECT_GE(result.value().total_seconds, 0.0);
}

TEST(ReleasePipelineTest, OverdrawnSplitIsRejected) {
  pipeline::PipelineConfig config;
  config.epsilon = 0.5;
  config.split.theta_x = 0.4;
  config.split.theta_f = 0.4;
  config.split.degree_seq = 0.4;
  util::Rng rng(17);
  auto result = pipeline::RunPrivateRelease(Input(), config, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------- determinism --

// Same seed => identical synthetic graph at 1, 2 and 4 sampler threads,
// for both the sharded-FCL hot path and the TriCycLe path (whose Θ'F
// measurement is the parallel part).
TEST(SamplerDeterminismTest, IdenticalGraphAcross124Threads) {
  for (const std::string& model : {std::string("fcl"), std::string("tricycle")}) {
    pipeline::PipelineConfig fit_config;
    fit_config.model = model;
    util::Rng fit_rng(23);
    auto fit = pipeline::FitReleaseArtifact(Input(), fit_config, fit_rng);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();

    graph::AttributedGraph reference;
    for (int threads : {1, 2, 4}) {
      pipeline::PipelineConfig config;
      config.model = model;
      config.sample.acceptance_iterations = 2;
      config.sample.threads = threads;
      util::Rng rng(42);
      auto sampled = pipeline::SampleRelease(fit.value().params, config, rng);
      ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
      if (threads == 1) {
        reference = std::move(sampled).value();
      } else {
        EXPECT_TRUE(SameGraph(reference, sampled.value()))
            << model << " diverged at " << threads << " threads";
      }
    }
    EXPECT_GT(reference.num_edges(), 0u);
  }
}

TEST(SamplerDeterminismTest, EndToEndReleaseIsThreadCountInvariant) {
  graph::AttributedGraph reference;
  for (int threads : {1, 4}) {
    pipeline::PipelineConfig config;
    config.model = "fcl";
    config.sample.acceptance_iterations = 2;
    config.sample.threads = threads;
    util::Rng rng(29);
    auto result = pipeline::RunPrivateRelease(Input(), config, rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (threads == 1) {
      reference = std::move(result).value().graph;
    } else {
      EXPECT_TRUE(SameGraph(reference, result.value().graph));
    }
  }
}

TEST(SamplerDeterminismTest, ParallelThetaFMatchesSequential) {
  const std::vector<double> expected = agm::ComputeThetaF(Input());
  for (int threads : {1, 2, 4, 0}) {
    const std::vector<double> measured = agm::MeasureThetaF(Input(), threads);
    ASSERT_EQ(measured.size(), expected.size());
    for (size_t y = 0; y < expected.size(); ++y) {
      EXPECT_DOUBLE_EQ(measured[y], expected[y]) << "threads=" << threads;
    }
  }
}

// Golden-release regression. The checksums (server::GraphChecksum, the
// FNV-1a fingerprint the daemon serves) are literals captured once from
// the sampler and pinned here, so they hold across commits, not only
// across thread counts: a refactor of the sampler, the shard merge or the
// Graph build that moves a single sampled bit fails this test. Fixed
// input (Input()), epsilon ln 2, seed kGoldenSeed, two acceptance
// iterations.
constexpr uint64_t kGoldenSeed = 20260730;

struct GoldenChecksums {
  const char* model;
  /// RunPrivateRelease at 1, 2 and 4 sampler threads (and a rerun).
  uint64_t release;
  /// Uncalibrated engine, SampleMany(4) from sequence 0, at pool sizes
  /// 1 and 4.
  uint64_t many[4];
  /// Calibrated engine (EngineOptions defaults), SampleMany(4).
  uint64_t calibrated[4];
};

constexpr GoldenChecksums kGolden[] = {
    {"fcl",
     15056673885295524544ull,
     {5259316263498032214ull, 2220790973309421557ull, 9365101710743338816ull,
      14004843720648862279ull},
     {15929842119402751904ull, 4516153339287521085ull, 909166689209193769ull,
      14590908584661297316ull}},
    {"tricycle",
     18166957158890651360ull,
     {9551215061627594426ull, 5276275479526368452ull, 5384888756847689186ull,
      6890438917857807429ull},
     {5317819269462456387ull, 7220066469837350423ull, 14899608306534883806ull,
      14911757168568896620ull}},
};

pipeline::PipelineConfig GoldenConfig(const std::string& model) {
  pipeline::PipelineConfig config;
  config.epsilon = std::log(2.0);
  config.model = model;
  config.sample.acceptance_iterations = 2;
  return config;
}

void ExpectSampleManyChecksums(const pipeline::ReleaseEngine& engine,
                               const uint64_t (&expected)[4],
                               const std::string& label) {
  pipeline::SampleRequest base;
  base.seed = kGoldenSeed;
  auto graphs = engine.SampleMany(4, base);
  ASSERT_TRUE(graphs.ok()) << label << ": " << graphs.status().ToString();
  ASSERT_EQ(graphs.value().size(), 4u) << label;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(server::GraphChecksum(graphs.value()[i]), expected[i])
        << label << " sequence " << i;
  }
}

// A fixed seed and PipelineConfig reproduce the pinned release checksum at
// 1, 2 and 4 sampler threads and across repeated runs, with a ledger that
// sums exactly to the configured epsilon every time.
TEST(GoldenReleaseTest, ChecksummedReleaseAndLedgerReproduceAcrossThreads) {
  for (const GoldenChecksums& golden : kGolden) {
    for (int threads : {1, 2, 4, /*rerun at 1:*/ 1}) {
      pipeline::PipelineConfig config = GoldenConfig(golden.model);
      config.sample.threads = threads;
      util::Rng rng(kGoldenSeed);
      auto result = pipeline::RunPrivateRelease(Input(), config, rng);
      ASSERT_TRUE(result.ok())
          << golden.model << ": " << result.status().ToString();
      EXPECT_EQ(server::GraphChecksum(result.value().graph), golden.release)
          << golden.model << " diverged at threads=" << threads;

      // The epsilon ledger must sum exactly (not approximately) to the
      // budget on every run.
      double sum = 0.0;
      for (const auto& [label, eps] : result.value().ledger) sum += eps;
      EXPECT_DOUBLE_EQ(sum, config.epsilon) << golden.model;
      EXPECT_DOUBLE_EQ(result.value().epsilon_spent, config.epsilon)
          << golden.model;
    }
  }
}

// Served samples are pinned too: SampleMany(4) on an uncalibrated engine at
// pool sizes 1 and 4, and on a calibrated engine.
TEST(GoldenReleaseTest, EngineSampleManyReproducesPinnedChecksums) {
  for (const GoldenChecksums& golden : kGolden) {
    util::Rng rng(kGoldenSeed);
    auto artifact =
        pipeline::FitReleaseArtifact(Input(), GoldenConfig(golden.model), rng);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    for (int threads : {1, 4}) {
      pipeline::EngineOptions options;
      options.threads = threads;
      options.calibrate = false;
      auto engine = pipeline::ReleaseEngine::Create(artifact.value(), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      ExpectSampleManyChecksums(*engine.value(), golden.many,
                                std::string(golden.model) + " threads=" +
                                    std::to_string(threads));
    }
    auto calibrated = pipeline::ReleaseEngine::Create(artifact.value());
    ASSERT_TRUE(calibrated.ok()) << calibrated.status().ToString();
    ExpectSampleManyChecksums(*calibrated.value(), golden.calibrated,
                              std::string(golden.model) + " calibrated");
  }
}

pipeline::PipelineConfig GoldenConfig(const std::string& mechanism,
                                      const std::string& model) {
  pipeline::PipelineConfig config = GoldenConfig(model);
  config.mechanism = mechanism;
  return config;
}

// The fitted artifacts are pinned too, for every registered mechanism:
// ReleaseArtifactReleaseKey is an FNV-1a hash of the canonical artifact
// JSON, so one moved parameter, ledger entry or payload byte changes it.
// Same input, seed and epsilon as kGolden.
TEST(GoldenReleaseTest, ArtifactReleaseKeysArePinnedForEveryMechanism) {
  struct GoldenKey {
    const char* mechanism;
    const char* model;
    uint64_t release_key;
  };
  constexpr GoldenKey kKeys[] = {
      {"agm", "fcl", 466166127235952473ull},
      {"agm", "tricycle", 10621472169661009951ull},
      {"community_dp", "tricycle", 16400382823286462595ull},
      {"kanon_baseline", "tricycle", 17136845375720848825ull},
  };
  for (const GoldenKey& golden : kKeys) {
    util::Rng rng(kGoldenSeed);
    auto artifact = pipeline::FitReleaseArtifact(
        Input(), GoldenConfig(golden.mechanism, golden.model), rng);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    EXPECT_EQ(pipeline::ReleaseArtifactReleaseKey(artifact.value()),
              golden.release_key)
        << golden.mechanism << "/" << golden.model;
  }
}

// The non-AGM mechanisms' served samples: RunPrivateRelease at 1 and 4
// sampler threads, and SampleMany(4) from sequence 0 at pool sizes 1 and 4
// (kGolden pins agm's).
TEST(GoldenReleaseTest, OtherMechanismsReproducePinnedChecksums) {
  struct GoldenMechanism {
    const char* mechanism;
    uint64_t release;
    uint64_t many[4];
  };
  constexpr GoldenMechanism kMechanisms[] = {
      {"community_dp",
       18075107873809336131ull,
       {6125703947420633643ull, 15661406566601848180ull,
        14144980012001270852ull, 7972800143382358036ull}},
      {"kanon_baseline",
       4529381849188950443ull,
       {1921082550759541406ull, 13733500667742896727ull,
        11417878189492532286ull, 7097548240104619442ull}},
  };
  for (const GoldenMechanism& golden : kMechanisms) {
    const pipeline::PipelineConfig config =
        GoldenConfig(golden.mechanism, "tricycle");
    for (int threads : {1, 4}) {
      pipeline::PipelineConfig threaded = config;
      threaded.sample.threads = threads;
      util::Rng rng(kGoldenSeed);
      auto result = pipeline::RunPrivateRelease(Input(), threaded, rng);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(server::GraphChecksum(result.value().graph), golden.release)
          << golden.mechanism << " threads=" << threads;
    }
    util::Rng rng(kGoldenSeed);
    auto artifact = pipeline::FitReleaseArtifact(Input(), config, rng);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    for (int threads : {1, 4}) {
      pipeline::EngineOptions options;
      options.threads = threads;
      auto engine = pipeline::ReleaseEngine::Create(artifact.value(), options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      ExpectSampleManyChecksums(*engine.value(), golden.many,
                                std::string(golden.mechanism) + " threads=" +
                                    std::to_string(threads));
    }
  }
}

TEST(SamplerDeterminismTest, SubstreamIsPureAndDistinct) {
  util::Rng a = util::Rng::Substream(123, 0);
  util::Rng b = util::Rng::Substream(123, 0);
  util::Rng c = util::Rng::Substream(123, 1);
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    const uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    if (x != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace agmdp
