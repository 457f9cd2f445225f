#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "src/util/alias_sampler.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::util {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "k must be positive");
  EXPECT_EQ(s.ToString(), "InvalidArgument: k must be positive");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= 7; ++code) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(code)), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, OkStatusNormalizedToInternalError) {
  Result<int> r(Status::OK());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIndexCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.UniformIndex(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 10, 500);  // ~5 sigma
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, LaplaceMeanAndScale) {
  Rng rng(19);
  const double scale = 2.5;
  const int trials = 200000;
  double sum = 0.0, abs_sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    double x = rng.Laplace(scale);
    sum += x;
    abs_sum += std::fabs(x);
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.05);          // mean 0
  EXPECT_NEAR(abs_sum / trials, scale, 0.05);    // E|X| = b
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  const double rate = 4.0;
  const int trials = 200000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) sum += rng.Exponential(rate);
  EXPECT_NEAR(sum / trials, 1.0 / rate, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(29);
  const int trials = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < trials; ++i) {
    double x = rng.Gaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.02);
  EXPECT_NEAR(sq / trials, 1.0, 0.03);
}

TEST(RngTest, GeometricMean) {
  Rng rng(31);
  const double p = 0.25;
  const int trials = 200000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) sum += static_cast<double>(rng.Geometric(p));
  // E[X] = (1 - p) / p = 3.
  EXPECT_NEAR(sum / trials, 3.0, 0.1);
  EXPECT_EQ(rng.Geometric(1.0), 0u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += parent.Next() == child.Next();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(41);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---------------------------------------------------------- AliasSampler --

TEST(AliasSamplerTest, RejectsBadWeights) {
  EXPECT_FALSE(AliasSampler::Build({}).ok());
  EXPECT_FALSE(AliasSampler::Build({0.0, 0.0}).ok());
  EXPECT_FALSE(AliasSampler::Build({1.0, -0.5}).ok());
}

TEST(AliasSamplerTest, MatchesTargetDistribution) {
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  auto sampler = AliasSampler::Build(weights);
  ASSERT_TRUE(sampler.ok());
  Rng rng(43);
  std::vector<int> counts(4, 0);
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) ++counts[sampler.value().Sample(rng)];
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / 10.0;
    EXPECT_NEAR(static_cast<double>(counts[i]) / trials, expected, 0.01)
        << "category " << i;
  }
}

TEST(AliasSamplerTest, ZeroWeightCategoriesNeverSampled) {
  auto sampler = AliasSampler::Build({0.0, 1.0, 0.0, 1.0});
  ASSERT_TRUE(sampler.ok());
  Rng rng(47);
  for (int i = 0; i < 10000; ++i) {
    size_t s = sampler.value().Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasSamplerTest, SingleCategory) {
  auto sampler = AliasSampler::Build({5.0});
  ASSERT_TRUE(sampler.ok());
  Rng rng(53);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.value().Sample(rng), 0u);
}

TEST(AliasSamplerTest, MassOfReportsNormalizedInput) {
  auto sampler = AliasSampler::Build({1.0, 3.0});
  ASSERT_TRUE(sampler.ok());
  EXPECT_DOUBLE_EQ(sampler.value().MassOf(0), 0.25);
  EXPECT_DOUBLE_EQ(sampler.value().MassOf(1), 0.75);
}

// ------------------------------------------------------------------ Flags --

TEST(FlagsTest, ParsesEqualsAndBooleanForms) {
  const char* argv[] = {"prog", "--trials=5", "--eps=0.3", "--full", "pos"};
  Flags flags = Flags::Parse(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("trials", 0), 5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 0.0), 0.3);
  EXPECT_TRUE(flags.GetBool("full", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos");
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags = Flags::Parse(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("trials", 42), 42);
  EXPECT_EQ(flags.GetString("name", "x"), "x");
  EXPECT_FALSE(flags.Has("anything"));
}

TEST(FlagsTest, DoubleListParsing) {
  const char* argv[] = {"prog", "--eps=0.1,0.2,0.5"};
  Flags flags = Flags::Parse(2, const_cast<char**>(argv));
  std::vector<double> eps = flags.GetDoubleList("eps", {1.0});
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_DOUBLE_EQ(eps[0], 0.1);
  EXPECT_DOUBLE_EQ(eps[2], 0.5);
  EXPECT_EQ(flags.GetDoubleList("other", {1.0, 2.0}).size(), 2u);
}

// ------------------------------------------------------------ JsonValue --
// Direct exercises of the reader's hostile-input defenses — the paths the
// artifact round-trip tests never hit because JsonWriter output is tame.

TEST(JsonValueTest, ParsesScalarsObjectsAndArrays) {
  auto doc = JsonValue::Parse(
      "{\"a\": 1.5, \"b\": [true, false, null, -2e3], \"c\": \"hi\"}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc.value().is_object());
  ASSERT_EQ(doc.value().members().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.value().Find("a")->number_value(), 1.5);
  const JsonValue* b = doc.value().Find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->array_items().size(), 4u);
  EXPECT_TRUE(b->array_items()[0].bool_value());
  EXPECT_EQ(b->array_items()[2].kind(), JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(b->array_items()[3].number_value(), -2000.0);
  EXPECT_EQ(doc.value().Find("c")->string_value(), "hi");
  EXPECT_EQ(doc.value().Find("missing"), nullptr);
}

TEST(JsonValueTest, DecodesEscapesIncludingUnicode) {
  auto doc = JsonValue::Parse(
      "\"a\\\"b\\\\c\\/d\\n\\t\\u0041\\u00e9\\u20ac\"");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // \u0041 = 'A'; \u00e9 = e-acute (2-byte UTF-8); \u20ac = euro (3-byte).
  EXPECT_EQ(doc.value().string_value(),
            "a\"b\\c/d\n\tA\xc3\xa9\xe2\x82\xac");

  EXPECT_FALSE(JsonValue::Parse("\"\\u12\"").ok());      // truncated hex
  EXPECT_FALSE(JsonValue::Parse("\"\\ud800\"").ok());    // surrogate
  EXPECT_FALSE(JsonValue::Parse("\"\\q\"").ok());        // unknown escape
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("\"ctrl\x01char\"").ok());
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\" 1}", "{\"a\": }", "tru", "nul", "01x",
        "1.5.5", "--3", "{} trailing", "[1 2]", "{\"a\":1,}"}) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << bad;
  }
  // Non-finite numbers are not JSON.
  EXPECT_FALSE(JsonValue::Parse("1e999").ok());
}

TEST(JsonValueTest, RejectsDuplicateKeysAndDeepNesting) {
  EXPECT_FALSE(JsonValue::Parse("{\"k\": 1, \"k\": 2}").ok());

  std::string deep;
  for (int i = 0; i < 80; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 80; ++i) deep += "]";
  auto result = JsonValue::Parse(deep);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("nesting"), std::string::npos);

  // Just inside the bound parses fine.
  std::string shallow;
  for (int i = 0; i < 30; ++i) shallow += "[";
  shallow += "1";
  for (int i = 0; i < 30; ++i) shallow += "]";
  EXPECT_TRUE(JsonValue::Parse(shallow).ok());
}

TEST(JsonValueTest, ExactNumbersRoundTripBitwise) {
  const double values[] = {0.6931471805599453, 1e-300, 1.7976931348623157e308,
                           -0.1, 3.0000000000000004};
  for (double v : values) {
    auto doc = JsonValue::Parse(JsonNumberExact(v));
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().number_value(), v);
  }
}

// ---------------------------------------------------- JsonValue hardening --
//
// The limits overload is the server's request parser: everything arriving
// on the socket goes through it, so every violation must be a typed
// InvalidArgument — never a crash, never an accepted document.

TEST(JsonHardeningTest, DepthCapIsConfigurable) {
  JsonLimits limits;
  limits.max_depth = 4;
  std::string nested = "[[[[1]]]]";  // depth 4: allowed
  EXPECT_TRUE(JsonValue::Parse(nested, limits).ok());
  std::string deeper = "[[[[[1]]]]]";  // depth 5: rejected
  auto result = JsonValue::Parse(deeper, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("nesting"), std::string::npos);
}

TEST(JsonHardeningTest, AdversarialDeepNestingIsTypedNotFatal) {
  JsonLimits limits;
  limits.max_depth = 8;
  std::string bomb;
  for (int i = 0; i < 100000; ++i) bomb += "[";
  auto result = JsonValue::Parse(bomb, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonHardeningTest, ByteCapRejectsHugeInput) {
  JsonLimits limits;
  limits.max_bytes = 64;
  EXPECT_TRUE(JsonValue::Parse("{\"k\": 1}", limits).ok());
  std::string huge = "\"" + std::string(200, 'x') + "\"";
  auto result = JsonValue::Parse(huge, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("64"), std::string::npos);
  // 0 = unlimited (the default): the same document parses.
  EXPECT_TRUE(JsonValue::Parse(huge).ok());
}

TEST(JsonHardeningTest, TruncatedAndMalformedUtf8IsRejected) {
  // Truncated multi-byte sequences (lead byte, then EOF or a non-
  // continuation byte).
  EXPECT_FALSE(JsonValue::Parse("\"\xc3\"").ok());          // 2-byte, cut
  EXPECT_FALSE(JsonValue::Parse("\"\xe2\x82\"").ok());      // 3-byte, cut
  EXPECT_FALSE(JsonValue::Parse("\"\xf0\x9f\x98\"").ok());  // 4-byte, cut
  EXPECT_FALSE(JsonValue::Parse("\"\xc3(\"").ok());   // bad continuation
  // Illegal lead bytes: bare continuation, overlong prefix, > U+10FFFF.
  EXPECT_FALSE(JsonValue::Parse("\"\x80\"").ok());
  EXPECT_FALSE(JsonValue::Parse("\"\xc0\xaf\"").ok());
  EXPECT_FALSE(JsonValue::Parse("\"\xf5\x80\x80\x80\"").ok());
  // All rejections are typed.
  auto result = JsonValue::Parse("\"\xc3\"");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // Well-formed UTF-8 passes through byte-exact.
  auto ok = JsonValue::Parse("\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\"");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().string_value(),
            "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80");
}

// ---------------------------------------------------------- Checked flags --

TEST(FlagsTest, CheckedGettersAcceptWellFormedValues) {
  const char* argv[] = {"prog", "--threads=8", "--epsilon=0.69"};
  Flags flags = Flags::Parse(3, const_cast<char**>(argv));
  auto threads = flags.GetCheckedInt("threads", 1);
  ASSERT_TRUE(threads.ok());
  EXPECT_EQ(threads.value(), 8);
  auto epsilon = flags.GetCheckedDouble("epsilon", 0.0);
  ASSERT_TRUE(epsilon.ok());
  EXPECT_DOUBLE_EQ(epsilon.value(), 0.69);
  // Absent flags fall back, exactly like the unchecked getters.
  EXPECT_EQ(flags.GetCheckedInt("absent", 42).value(), 42);
  EXPECT_DOUBLE_EQ(flags.GetCheckedDouble("absent", 2.5).value(), 2.5);
}

TEST(FlagsTest, CheckedGettersRejectMalformedValues) {
  const char* argv[] = {"prog", "--threads=abc", "--epsilon=0.5x",
                        "--samples="};
  Flags flags = Flags::Parse(4, const_cast<char**>(argv));
  auto threads = flags.GetCheckedInt("threads", 1);
  ASSERT_FALSE(threads.ok());
  EXPECT_EQ(threads.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(threads.status().message().find("--threads"), std::string::npos);
  auto epsilon = flags.GetCheckedDouble("epsilon", 0.0);
  ASSERT_FALSE(epsilon.ok());
  EXPECT_EQ(epsilon.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(flags.GetCheckedInt("samples", 1).ok());
}

TEST(FlagsTest, RejectUnknownNamesTheFlagAndTheAcceptedSet) {
  const char* argv[] = {"prog", "--artifakt=x", "--seed=3", "pos"};
  Flags flags = Flags::Parse(4, const_cast<char**>(argv));
  const Status st = flags.RejectUnknown({"artifact", "seed"});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("--artifakt"), std::string::npos);
  EXPECT_NE(st.message().find("--artifact"), std::string::npos);
  EXPECT_NE(st.message().find("--seed"), std::string::npos);
  // Declared flags and positionals pass; an empty set rejects any flag.
  EXPECT_TRUE(flags.RejectUnknown({"artifakt", "seed"}).ok());
  EXPECT_FALSE(flags.RejectUnknown({}).ok());
  const char* bare[] = {"prog", "pos"};
  EXPECT_TRUE(Flags::Parse(2, const_cast<char**>(bare)).RejectUnknown({}).ok());
}

// ------------------------------------------------------ New status codes --

TEST(StatusTest, ResourceExhaustedAndUnavailableRoundTrip) {
  const Status exhausted = Status::ResourceExhausted("over budget");
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  const Status unavailable = Status::Unavailable("shutting down");
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);

  // Name round trip — the wire protocol ships codes by name.
  for (const Status& status : {exhausted, unavailable,
                               Status::InvalidArgument("x"),
                               Status::NotFound("y")}) {
    const StatusCode code =
        StatusCodeFromString(StatusCodeToString(status.code()));
    EXPECT_EQ(code, status.code());
    const Status rebuilt =
        Status::FromCodeMessage(code, std::string(status.message()));
    EXPECT_EQ(rebuilt, status);
  }
  EXPECT_EQ(StatusCodeFromString("NoSuchCode"), StatusCode::kInternal);
}

}  // namespace
}  // namespace agmdp::util
