// Concurrency suite for the serving daemon (ctest label: concurrency — the
// set the TSan CI job runs).
//
// Covers the server's three contracts end to end:
//   * resource control — LRU cache hit/evict/pin behaviour under a byte
//     budget, bounded-queue backpressure with typed rejection;
//   * privacy control — the tenant ledger never lets a tenant overdraw
//     its epsilon cap, idempotently per release, under >= 4 concurrent
//     client threads, while other tenants proceed;
//   * determinism — graphs served concurrently (and coalesced into
//     batches) are byte-identical to a sequential oracle sampling the
//     same (seed, sequence) requests from the engine directly.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/datasets/datasets.h"
#include "src/pipeline/release_engine.h"
#include "src/pipeline/release_pipeline.h"
#include "src/registry/artifact_registry.h"
#include "src/server/client.h"
#include "src/server/engine_cache.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/tenant_ledger.h"
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

pipeline::PipelineConfig TestConfig() {
  pipeline::PipelineConfig config;
  config.epsilon = std::log(2.0);
  config.model = "fcl";
  config.sample.acceptance_iterations = 2;
  return config;
}

/// Distinct seeds give distinct noise draws, hence distinct releases with
/// distinct release keys but equal epsilon_spent.
const pipeline::ReleaseArtifact& FittedArtifact(uint64_t seed) {
  static std::map<uint64_t, pipeline::ReleaseArtifact>* cache =
      new std::map<uint64_t, pipeline::ReleaseArtifact>();
  auto it = cache->find(seed);
  if (it == cache->end()) {
    util::Rng rng(seed);
    auto artifact = pipeline::FitReleaseArtifact(Input(), TestConfig(), rng);
    AGMDP_CHECK_MSG(artifact.ok(), artifact.status().ToString().c_str());
    it = cache->emplace(seed, std::move(artifact).value()).first;
  }
  return it->second;
}

/// Writes the artifact under the test temp dir and returns the path.
std::string ArtifactFile(uint64_t seed) {
  const std::string path = ::testing::TempDir() + "server_test_artifact_" +
                           std::to_string(seed) + ".json";
  auto st = pipeline::WriteReleaseArtifact(FittedArtifact(seed), path);
  AGMDP_CHECK_MSG(st.ok(), st.ToString().c_str());
  return path;
}

std::shared_ptr<pipeline::ReleaseEngine> MakeEngine(uint64_t seed) {
  pipeline::EngineOptions options;
  options.threads = 1;
  auto engine =
      pipeline::ReleaseEngine::Create(FittedArtifact(seed), options);
  AGMDP_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  return std::move(engine).value();
}

/// A community_dp release of the same input.
const pipeline::ReleaseArtifact& CommunityArtifact() {
  static const pipeline::ReleaseArtifact* artifact = [] {
    pipeline::PipelineConfig config = TestConfig();
    config.mechanism = "community_dp";
    util::Rng rng(9);
    auto fitted = pipeline::FitReleaseArtifact(Input(), config, rng);
    AGMDP_CHECK_MSG(fitted.ok(), fitted.status().ToString().c_str());
    return new pipeline::ReleaseArtifact(std::move(fitted).value());
  }();
  return *artifact;
}

/// Writes the community_dp release under the test temp dir; returns the
/// path.
std::string CommunityArtifactFile() {
  const std::string path =
      ::testing::TempDir() + "server_test_artifact_community_dp.json";
  auto st = pipeline::WriteReleaseArtifact(CommunityArtifact(), path);
  AGMDP_CHECK_MSG(st.ok(), st.ToString().c_str());
  return path;
}

/// The sequential oracle: checksums of Sample({seed, sequence}) for
/// sequence first .. first+n-1, straight from a one-worker engine with no
/// server around it.
std::vector<uint64_t> OracleChecksums(const pipeline::ReleaseArtifact& artifact,
                                      uint64_t sample_seed, uint64_t first,
                                      int n) {
  pipeline::EngineOptions options;
  options.threads = 1;
  auto created = pipeline::ReleaseEngine::Create(artifact, options);
  AGMDP_CHECK_MSG(created.ok(), created.status().ToString().c_str());
  const std::unique_ptr<pipeline::ReleaseEngine> engine =
      std::move(created).value();
  pipeline::SampleRequest base;
  base.seed = sample_seed;
  base.sequence = first;
  auto graphs = engine->SampleMany(n, base);
  AGMDP_CHECK_MSG(graphs.ok(), graphs.status().ToString().c_str());
  std::vector<uint64_t> sums;
  sums.reserve(graphs.value().size());
  for (const auto& g : graphs.value()) sums.push_back(server::GraphChecksum(g));
  return sums;
}

std::vector<uint64_t> OracleChecksums(uint64_t artifact_seed,
                                      uint64_t sample_seed, uint64_t first,
                                      int n) {
  return OracleChecksums(FittedArtifact(artifact_seed), sample_seed, first,
                         n);
}

// -------------------------------------------------------------- protocol --

TEST(ProtocolTest, RequestRoundTripsEveryOp) {
  server::Request request;
  request.op = server::RequestOp::kSample;
  request.id = 42;
  request.tenant = "alice";
  request.name = "model-a";
  request.seed = 0xdeadbeefcafef00dULL;  // > 2^53: must survive as a string
  request.sequence = 7;
  request.count = 3;
  request.refine_iterations = 2;
  request.out = "prefix with spaces/\"quotes\"";
  auto back = server::ParseRequest(server::SerializeRequest(request));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().op, request.op);
  EXPECT_EQ(back.value().id, request.id);
  EXPECT_EQ(back.value().tenant, request.tenant);
  EXPECT_EQ(back.value().name, request.name);
  EXPECT_EQ(back.value().seed, request.seed);
  EXPECT_EQ(back.value().sequence, request.sequence);
  EXPECT_EQ(back.value().count, request.count);
  EXPECT_EQ(back.value().refine_iterations, request.refine_iterations);
  EXPECT_EQ(back.value().out, request.out);

  for (server::RequestOp op :
       {server::RequestOp::kLoad, server::RequestOp::kPin,
        server::RequestOp::kUnpin, server::RequestOp::kUnload,
        server::RequestOp::kStats, server::RequestOp::kShutdown}) {
    server::Request r;
    r.op = op;
    r.id = 1;
    r.name = "m";
    r.artifact = "a.json";
    auto rt = server::ParseRequest(server::SerializeRequest(r));
    ASSERT_TRUE(rt.ok()) << server::RequestOpName(op) << ": "
                         << rt.status().ToString();
    EXPECT_EQ(rt.value().op, op);
  }
}

TEST(ProtocolTest, MalformedRequestsAreTypedErrors) {
  const char* bad[] = {
      "not json at all",
      "{\"op\":\"sample\"",                       // truncated
      "{\"op\":\"explode\",\"id\":1}",            // unknown op
      "{\"id\":1}",                               // missing op
      "{\"op\":\"sample\",\"id\":1,\"name\":\"m\",\"count\":0}",
      "{\"op\":\"sample\",\"id\":1,\"count\":1}",   // missing name
      "{\"op\":\"load\",\"id\":1,\"name\":\"m\"}",  // missing artifact
      "{\"op\":\"sample\",\"id\":\"x\",\"name\":\"m\"}",  // id not a number
      "[1,2,3]",                                  // not an object
  };
  for (const char* line : bad) {
    auto parsed = server::ParseRequest(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument)
        << line;
  }
  // Oversized and adversarially nested lines are rejected by the parser
  // caps, not by running out of stack.
  std::string huge = "{\"op\":\"stats\",\"id\":1,\"name\":\"" +
                     std::string(server::kMaxRequestBytes, 'x') + "\"}";
  EXPECT_FALSE(server::ParseRequest(huge).ok());
  std::string deep = "{\"op\":\"stats\",\"id\":";
  for (int i = 0; i < 64; ++i) deep += "[";
  EXPECT_FALSE(server::ParseRequest(deep).ok());
}

// SampleMany allocates a slot per graph up front, so the parser bounds the
// count instead of letting a daemon worker attempt the allocation.
TEST(ProtocolTest, SampleCountAboveTheCapIsATypedError) {
  const auto line = [](long long count) {
    return "{\"op\":\"sample\",\"id\":1,\"name\":\"m\",\"count\":" +
           std::to_string(count) + "}";
  };
  auto at_cap = server::ParseRequest(line(server::kMaxSampleCount));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap.value().count, server::kMaxSampleCount);
  for (long long count :
       {static_cast<long long>(server::kMaxSampleCount) + 1,
        static_cast<long long>(INT_MAX)}) {
    auto parsed = server::ParseRequest(line(count));
    ASSERT_FALSE(parsed.ok()) << count;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument)
        << count;
  }
}

TEST(ProtocolTest, ResponseRoundTripsStatusGraphsAndStats) {
  server::Response response;
  response.id = 9;
  server::GraphSummary graph;
  graph.nodes = 1234;
  graph.edges = 99999;
  graph.checksum = 0xffffffffffffffffULL;  // needs string transport
  graph.path = "out_0";
  response.graphs.push_back(graph);
  response.stats.emplace_back("cache_hits", 3.0);
  auto back = server::ParseResponse(server::SerializeResponse(response));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value().status.ok());
  EXPECT_EQ(back.value().id, 9u);
  ASSERT_EQ(back.value().graphs.size(), 1u);
  EXPECT_EQ(back.value().graphs[0].nodes, 1234u);
  EXPECT_EQ(back.value().graphs[0].edges, 99999u);
  EXPECT_EQ(back.value().graphs[0].checksum, 0xffffffffffffffffULL);
  EXPECT_EQ(back.value().graphs[0].path, "out_0");
  ASSERT_EQ(back.value().stats.size(), 1u);
  EXPECT_EQ(back.value().stats[0].first, "cache_hits");

  server::Response error;
  error.id = 10;
  error.status = util::Status::ResourceExhausted("queue full");
  auto eback = server::ParseResponse(server::SerializeResponse(error));
  ASSERT_TRUE(eback.ok());
  EXPECT_EQ(eback.value().status.code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_EQ(eback.value().status.message(), "queue full");
}

// ---------------------------------------------------------------- ledger --

TEST(TenantLedgerTest, ChargesOncePerReleaseAndEnforcesCaps) {
  server::TenantLedgerOptions options;
  options.budgets = {{"alice", 1.0}, {"bob", 2.0}};
  server::TenantLedger ledger(std::move(options));

  // First charge debits; repeating the same release is free.
  EXPECT_TRUE(ledger.Charge("alice", /*release_key=*/111, 0.7).ok());
  EXPECT_TRUE(ledger.Charge("alice", 111, 0.7).ok());
  EXPECT_DOUBLE_EQ(ledger.Spent("alice"), 0.7);

  // A different release that would overdraw is a typed rejection and
  // leaves the ledger unchanged.
  auto st = ledger.Charge("alice", 222, 0.7);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(ledger.Spent("alice"), 0.7);

  // Other tenants are unaffected.
  EXPECT_TRUE(ledger.Charge("bob", 222, 0.7).ok());
  EXPECT_TRUE(ledger.Charge("bob", 333, 0.7).ok());
  EXPECT_DOUBLE_EQ(ledger.Spent("bob"), 1.4);

  // Unknown tenants are rejected when there is no default budget...
  EXPECT_EQ(ledger.Charge("mallory", 111, 0.1).code(),
            util::StatusCode::kResourceExhausted);
  // ...and an empty tenant is a usage error, not a free ride.
  EXPECT_EQ(ledger.Charge("", 111, 0.1).code(),
            util::StatusCode::kInvalidArgument);

  server::TenantLedgerOptions with_default;
  with_default.default_budget = 0.5;
  server::TenantLedger open_ledger(std::move(with_default));
  EXPECT_TRUE(open_ledger.Charge("anyone", 1, 0.4).ok());
  EXPECT_FALSE(open_ledger.Charge("anyone", 2, 0.4).ok());
}

TEST(TenantLedgerTest, ConcurrentChargesNeverOverdraw) {
  // 8 threads race 400 distinct releases at 0.1 each against a cap of
  // 1.05: exactly 10 may succeed, no interleaving may exceed the cap.
  server::TenantLedgerOptions options;
  options.budgets = {{"alice", 1.05}};
  server::TenantLedger ledger(std::move(options));

  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 50;
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ledger, &successes] {
      for (int k = 0; k < kKeysPerThread; ++k) {
        const uint64_t key =
            static_cast<uint64_t>(t) * kKeysPerThread + k + 1;
        if (ledger.Charge("alice", key, 0.1).ok()) {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(successes.load(), 10);
  EXPECT_LE(ledger.Spent("alice"), 1.05 + 1e-9);
  EXPECT_NEAR(ledger.Spent("alice"), 1.0, 1e-9);
}

// ----------------------------------------------------------------- cache --

TEST(EngineCacheTest, LruEvictionUnderByteBudget) {
  auto a = MakeEngine(5);
  const uint64_t each = a->ApproxBytes();
  // Room for two engines of this size, not three.
  server::EngineCache cache(2 * each + each / 2);

  ASSERT_TRUE(cache.Insert("a", a).ok());
  ASSERT_TRUE(cache.Insert("b", MakeEngine(5)).ok());
  // Touch a so b is the LRU entry.
  ASSERT_TRUE(cache.Lookup("a").ok());
  ASSERT_TRUE(cache.Insert("c", MakeEngine(5)).ok());

  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));  // evicted as LRU
  EXPECT_TRUE(cache.Contains("c"));

  auto miss = cache.Lookup("b");
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), util::StatusCode::kNotFound);

  const server::EngineCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes_in_use, 2 * each);

  // An engine that cannot fit even an empty cache is a typed rejection.
  server::EngineCache tiny(16);
  auto st = tiny.Insert("x", MakeEngine(5));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(tiny.Stats().rejections, 1u);
}

TEST(EngineCacheTest, PinningBlocksEvictionAndErase) {
  auto a = MakeEngine(5);
  const uint64_t each = a->ApproxBytes();
  server::EngineCache cache(2 * each + each / 2);
  ASSERT_TRUE(cache.Insert("a", a).ok());
  ASSERT_TRUE(cache.Insert("b", MakeEngine(5)).ok());
  ASSERT_TRUE(cache.Pin("a").ok());
  ASSERT_TRUE(cache.Pin("b").ok());

  // Everything resident is pinned: admission must fail, not evict.
  auto st = cache.Insert("c", MakeEngine(5));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("b"));

  EXPECT_EQ(cache.Erase("a").code(), util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cache.Unpin("a").ok());
  EXPECT_TRUE(cache.Erase("a").ok());
  // With a unpinned away, c fits.
  EXPECT_TRUE(cache.Insert("c", MakeEngine(5)).ok());
  EXPECT_EQ(cache.Stats().pinned_entries, 1u);  // b

  EXPECT_EQ(cache.Pin("ghost").code(), util::StatusCode::kNotFound);
}

TEST(EngineCacheTest, LeaseKeepsEvictedEngineAlive) {
  server::EngineCache cache(0);  // unlimited
  ASSERT_TRUE(cache.Insert("a", MakeEngine(5)).ok());
  auto lease = cache.Lookup("a");
  ASSERT_TRUE(lease.ok());
  ASSERT_TRUE(cache.Erase("a").ok());
  // The lease still serves — eviction only drops the cache's reference.
  pipeline::SampleRequest request;
  request.seed = 9;
  EXPECT_TRUE(lease.value()->Sample(request).ok());
}

// ------------------------------------------------------ in-process server --

server::ServerOptions TestServerOptions() {
  server::ServerOptions options;
  options.port = 0;
  options.worker_threads = 4;
  options.default_tenant_budget = 10.0;
  return options;
}

TEST(ServerTest, LoadSampleUnloadLifecycle) {
  auto started = server::Server::Start(TestServerOptions());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();

  server::Request load;
  load.op = server::RequestOp::kLoad;
  load.id = 1;
  load.tenant = "alice";
  load.name = "m";
  load.artifact = ArtifactFile(5);
  EXPECT_TRUE(daemon.Handle(load).status.ok());

  server::Request sample;
  sample.op = server::RequestOp::kSample;
  sample.id = 2;
  sample.tenant = "alice";
  sample.name = "m";
  sample.seed = 77;
  sample.count = 3;
  const server::Response response = daemon.Handle(sample);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.graphs.size(), 3u);
  const std::vector<uint64_t> oracle = OracleChecksums(5, 77, 0, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(response.graphs[static_cast<size_t>(i)].checksum,
              oracle[static_cast<size_t>(i)])
        << "sequence " << i;
  }

  server::Request unload;
  unload.op = server::RequestOp::kUnload;
  unload.id = 3;
  unload.name = "m";
  EXPECT_TRUE(daemon.Handle(unload).status.ok());
  EXPECT_EQ(daemon.Handle(sample).status.code(),
            util::StatusCode::kNotFound);

  daemon.Stop();
  daemon.Wait();
}

TEST(ServerTest, TenantCannotOverspendWhileOthersProceed) {
  server::ServerOptions options = TestServerOptions();
  const double eps = FittedArtifact(5).epsilon_spent;
  options.default_tenant_budget = 0.0;
  // alice can afford one release; bob can afford both.
  options.tenant_budgets = {{"alice", 1.5 * eps}, {"bob", 2.5 * eps}};
  auto started = server::Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();

  auto load = [&](const std::string& tenant, const std::string& name,
                  uint64_t seed) {
    server::Request request;
    request.op = server::RequestOp::kLoad;
    request.id = 1;
    request.tenant = tenant;
    request.name = name;
    request.artifact = ArtifactFile(seed);
    return daemon.Handle(request).status;
  };

  EXPECT_TRUE(load("alice", "r1", 5).ok());
  // Re-loading the same release (even under another name) is idempotent.
  EXPECT_TRUE(load("alice", "r1-again", 5).ok());
  // A second distinct release would overdraw alice: typed rejection.
  const util::Status overdraw = load("alice", "r2", 11);
  ASSERT_FALSE(overdraw.ok());
  EXPECT_EQ(overdraw.code(), util::StatusCode::kResourceExhausted);
  // bob is unaffected by alice's exhaustion.
  EXPECT_TRUE(load("bob", "r2", 11).ok());
  // alice can still *sample* the release she already paid for...
  server::Request sample;
  sample.op = server::RequestOp::kSample;
  sample.id = 2;
  sample.tenant = "alice";
  sample.name = "r1";
  EXPECT_TRUE(daemon.Handle(sample).status.ok());
  // ...but not the one she was refused.
  sample.name = "r2";
  EXPECT_EQ(daemon.Handle(sample).status.code(),
            util::StatusCode::kResourceExhausted);

  daemon.Stop();
  daemon.Wait();
}

// ------------------------------------------------------------ TCP serving --

TEST(ServerTcpTest, ConcurrentClientsMatchSequentialOracle) {
  server::ServerOptions options = TestServerOptions();
  auto started = server::Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();

  {
    server::Request load;
    load.op = server::RequestOp::kLoad;
    load.id = 1;
    load.tenant = "alice";
    load.name = "m";
    load.artifact = ArtifactFile(5);
    ASSERT_TRUE(daemon.Handle(load).status.ok());
  }

  // 6 clients, each two graphs of a 12-sequence block; every interleaving
  // (and any server-side batching) must reproduce the oracle bit for bit.
  constexpr int kClients = 6;
  constexpr int kPerClient = 2;
  const std::vector<uint64_t> oracle =
      OracleChecksums(5, 99, 0, kClients * kPerClient);
  std::vector<std::vector<uint64_t>> got(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &daemon, &got, &errors] {
      auto client = server::Client::Connect("127.0.0.1", daemon.port());
      if (!client.ok()) {
        errors[static_cast<size_t>(c)] = client.status().ToString();
        return;
      }
      server::Request request;
      request.op = server::RequestOp::kSample;
      request.id = static_cast<uint64_t>(c) + 100;
      request.tenant = "alice";
      request.name = "m";
      request.seed = 99;
      request.sequence = static_cast<uint64_t>(c) * kPerClient;
      request.count = kPerClient;
      auto response = client.value().Call(request);
      if (!response.ok()) {
        errors[static_cast<size_t>(c)] = response.status().ToString();
        return;
      }
      if (!response.value().status.ok()) {
        errors[static_cast<size_t>(c)] =
            response.value().status.ToString();
        return;
      }
      for (const server::GraphSummary& g : response.value().graphs) {
        got[static_cast<size_t>(c)].push_back(g.checksum);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(errors[static_cast<size_t>(c)].empty())
        << "client " << c << ": " << errors[static_cast<size_t>(c)];
    ASSERT_EQ(got[static_cast<size_t>(c)].size(),
              static_cast<size_t>(kPerClient));
    for (int i = 0; i < kPerClient; ++i) {
      EXPECT_EQ(got[static_cast<size_t>(c)][static_cast<size_t>(i)],
                oracle[static_cast<size_t>(c * kPerClient + i)])
          << "client " << c << " graph " << i;
    }
  }

  daemon.Stop();
  daemon.Wait();
}

TEST(ServerTcpTest, BatchedServingIsBitIdenticalToSequential) {
  // One worker: a slow incompatible request occupies it while compatible
  // sample requests pile up in the queue, so the worker drains them as
  // one batch — whose responses must equal the sequential oracle.
  server::ServerOptions options = TestServerOptions();
  options.worker_threads = 1;
  options.max_queue = 64;
  auto started = server::Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();

  {
    server::Request load;
    load.op = server::RequestOp::kLoad;
    load.id = 1;
    load.tenant = "alice";
    load.name = "m";
    load.artifact = ArtifactFile(5);
    ASSERT_TRUE(daemon.Handle(load).status.ok());
  }

  auto blocker = server::Client::Connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(blocker.ok());
  server::Request heavy;
  heavy.op = server::RequestOp::kSample;
  heavy.id = 50;
  heavy.tenant = "alice";
  heavy.name = "m";
  heavy.seed = 1;
  heavy.count = 8;  // keeps the single worker busy while the batch forms
  ASSERT_TRUE(blocker.value().Send(heavy).ok());

  constexpr int kRequests = 5;
  auto pipelined = server::Client::Connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(pipelined.ok());
  for (int i = 0; i < kRequests; ++i) {
    server::Request request;
    request.op = server::RequestOp::kSample;
    request.id = static_cast<uint64_t>(i) + 200;
    request.tenant = "alice";
    request.name = "m";
    request.seed = 4242;
    request.sequence = static_cast<uint64_t>(i);
    request.count = 1;
    ASSERT_TRUE(pipelined.value().Send(request).ok());
  }

  // Batching may answer out of request order: collect by id.
  std::map<uint64_t, uint64_t> checksum_by_id;
  for (int i = 0; i < kRequests; ++i) {
    auto response = pipelined.value().ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response.value().status.ok())
        << response.value().status.ToString();
    ASSERT_EQ(response.value().graphs.size(), 1u);
    checksum_by_id[response.value().id] =
        response.value().graphs[0].checksum;
  }
  ASSERT_TRUE(blocker.value().ReadResponse().ok());

  const std::vector<uint64_t> oracle =
      OracleChecksums(5, 4242, 0, kRequests);
  for (int i = 0; i < kRequests; ++i) {
    const auto it = checksum_by_id.find(static_cast<uint64_t>(i) + 200);
    ASSERT_NE(it, checksum_by_id.end()) << "missing response " << i;
    EXPECT_EQ(it->second, oracle[static_cast<size_t>(i)]) << "sequence " << i;
  }

  daemon.Stop();
  daemon.Wait();
}

TEST(ServerTcpTest, FullQueueShedsLoadWithTypedRejection) {
  server::ServerOptions options = TestServerOptions();
  options.worker_threads = 1;
  options.max_queue = 1;
  options.batching = false;
  auto started = server::Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();

  {
    server::Request load;
    load.op = server::RequestOp::kLoad;
    load.id = 1;
    load.tenant = "alice";
    load.name = "m";
    load.artifact = ArtifactFile(5);
    ASSERT_TRUE(daemon.Handle(load).status.ok());
  }

  auto client = server::Client::Connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(client.ok());
  // One heavy request occupies the worker, then a burst of pipelined
  // requests overruns the one-slot queue: the overflow must come back as
  // immediate typed RESOURCE_EXHAUSTED, not be buffered.
  constexpr int kBurst = 16;
  for (int i = 0; i < 1 + kBurst; ++i) {
    server::Request request;
    request.op = server::RequestOp::kSample;
    request.id = static_cast<uint64_t>(i) + 1;
    request.tenant = "alice";
    request.name = "m";
    request.seed = 7;
    request.sequence = static_cast<uint64_t>(i) * 4;
    request.count = i == 0 ? 4 : 1;
    ASSERT_TRUE(client.value().Send(request).ok());
  }
  int ok_count = 0;
  int exhausted = 0;
  for (int i = 0; i < 1 + kBurst; ++i) {
    auto response = client.value().ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response.value().status.ok()) {
      ++ok_count;
    } else {
      ASSERT_EQ(response.value().status.code(),
                util::StatusCode::kResourceExhausted)
          << response.value().status.ToString();
      ++exhausted;
    }
  }
  EXPECT_EQ(ok_count + exhausted, 1 + kBurst);
  EXPECT_GE(exhausted, 1) << "burst never overran the one-slot queue";
  EXPECT_GE(ok_count, 1);
  EXPECT_EQ(daemon.Stats().rejected_queue_full,
            static_cast<uint64_t>(exhausted));

  daemon.Stop();
  daemon.Wait();
}

TEST(ServerTcpTest, ShutdownOpStopsTheDaemonCleanly) {
  auto started = server::Server::Start(TestServerOptions());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();
  const int port = daemon.port();

  auto client = server::Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  server::Request shutdown;
  shutdown.op = server::RequestOp::kShutdown;
  shutdown.id = 7;
  auto response = client.value().Call(shutdown);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().status.ok());
  daemon.Wait();  // returns: the op really stopped the daemon

  // Malformed line on a fresh daemon: typed error, no crash, still serves.
  auto again = server::Server::Start(TestServerOptions());
  ASSERT_TRUE(again.ok());
  auto probe = server::Client::Connect("127.0.0.1", again.value()->port());
  ASSERT_TRUE(probe.ok());
  server::Request stats;
  stats.op = server::RequestOp::kStats;
  stats.id = 1;
  ASSERT_TRUE(probe.value().Call(stats).ok());
  again.value()->Stop();
  again.value()->Wait();
}

// ------------------------------------------- timeouts and the registry --

TEST(ProtocolTest, LoadRoundTripsDatasetAndNeedsExactlyOneSource) {
  server::Request request;
  request.op = server::RequestOp::kLoad;
  request.id = 3;
  request.tenant = "alice";
  request.name = "m";
  request.dataset = "lastfm";
  auto back = server::ParseRequest(server::SerializeRequest(request));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().dataset, "lastfm");
  EXPECT_TRUE(back.value().artifact.empty());

  // A load naming both sources, or neither, is a typed usage error.
  const char* bad[] = {
      "{\"op\":\"load\",\"id\":1,\"name\":\"m\",\"artifact\":\"a.json\","
      "\"dataset\":\"lastfm\"}",
      "{\"op\":\"load\",\"id\":1,\"name\":\"m\"}",
  };
  for (const char* line : bad) {
    auto parsed = server::ParseRequest(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument)
        << line;
  }
}

/// A raw TCP socket the timeout tests drive byte-by-byte (Client always
/// writes complete lines, which is exactly what these tests must not do).
int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  AGMDP_CHECK_MSG(fd >= 0, "socket() failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  AGMDP_CHECK_MSG(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "connect() failed");
  return fd;
}

/// Reads until EOF and returns everything the server sent.
std::string DrainSocket(int fd) {
  std::string all;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    all.append(buf, static_cast<size_t>(n));
  }
  return all;
}

TEST(ServerTcpTest, SlowLorisClientIsReapedWithADeadline) {
  server::ServerOptions options = TestServerOptions();
  options.read_timeout_ms = 200;
  options.idle_timeout_ms = 0;  // isolate the read deadline
  auto started = server::Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();

  // Start a request line and then stall forever — the slow-loris shape.
  const int fd = RawConnect(daemon.port());
  const char* partial = "{\"op\":\"stats\",";
  ASSERT_GT(::send(fd, partial, std::strlen(partial), MSG_NOSIGNAL), 0);
  const std::string answer = DrainSocket(fd);  // returns on server close
  ::close(fd);

  // The connection was closed with a typed DEADLINE_EXCEEDED response,
  // not silently, and the reap is visible in the stats.
  EXPECT_NE(answer.find("DeadlineExceeded"), std::string::npos) << answer;
  EXPECT_EQ(daemon.Stats().reaped_deadline, 1u);
  EXPECT_EQ(daemon.Stats().reaped_idle, 0u);

  // A well-behaved client on the same daemon is unaffected.
  auto client = server::Client::Connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(client.ok());
  server::Request stats;
  stats.op = server::RequestOp::kStats;
  stats.id = 1;
  EXPECT_TRUE(client.value().Call(stats).ok());

  daemon.Stop();
  daemon.Wait();
}

TEST(ServerTcpTest, IdleConnectionIsReaped) {
  server::ServerOptions options = TestServerOptions();
  options.read_timeout_ms = 0;
  options.idle_timeout_ms = 200;
  auto started = server::Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();

  const int fd = RawConnect(daemon.port());  // connect, then say nothing
  const std::string answer = DrainSocket(fd);
  ::close(fd);
  EXPECT_NE(answer.find("DeadlineExceeded"), std::string::npos) << answer;
  EXPECT_EQ(daemon.Stats().reaped_idle, 1u);

  daemon.Stop();
  daemon.Wait();
}

std::string RegistryTempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "server_registry_" + name;
  std::remove(path.c_str());
  return path;
}

TEST(ServerTest, RegistryResolvedLoadMatchesTheFileOracle) {
  const std::string registry_path = RegistryTempPath("resolve");
  {
    // Register the release offline, the way an operator would.
    auto reg =
        registry::ArtifactRegistry::Open(registry_path, {});
    ASSERT_TRUE(reg.ok()) << reg.status().ToString();
    ASSERT_TRUE(reg.value()->Put("petster", "m", FittedArtifact(5)).ok());
  }
  server::ServerOptions options = TestServerOptions();
  options.registry_path = registry_path;
  auto started = server::Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();

  // Loading by (dataset, name) needs no artifact file anywhere near the
  // server, and serving from it is bitwise the engine oracle.
  server::Request load;
  load.op = server::RequestOp::kLoad;
  load.id = 1;
  load.tenant = "alice";
  load.name = "m";
  load.dataset = "petster";
  ASSERT_TRUE(daemon.Handle(load).status.ok());

  server::Request sample;
  sample.op = server::RequestOp::kSample;
  sample.id = 2;
  sample.tenant = "alice";
  sample.name = "m";
  sample.seed = 91;
  sample.count = 2;
  const server::Response response = daemon.Handle(sample);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const std::vector<uint64_t> oracle = OracleChecksums(5, 91, 0, 2);
  ASSERT_EQ(response.graphs.size(), 2u);
  EXPECT_EQ(response.graphs[0].checksum, oracle[0]);
  EXPECT_EQ(response.graphs[1].checksum, oracle[1]);

  // An unregistered name is NotFound; on a daemon with no registry the
  // same request is a typed precondition failure.
  load.id = 3;
  load.name = "ghost";
  load.dataset = "petster";
  EXPECT_EQ(daemon.Handle(load).status.code(),
            util::StatusCode::kNotFound);
  daemon.Stop();
  daemon.Wait();
  std::remove(registry_path.c_str());

  auto bare = server::Server::Start(TestServerOptions());
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value()->Handle(load).status.code(),
            util::StatusCode::kFailedPrecondition);
  bare.value()->Stop();
  bare.value()->Wait();
}

TEST(ServerTest, RestartedDaemonStillEnforcesTenantBudgets) {
  const std::string registry_path = RegistryTempPath("restart");
  const double eps = FittedArtifact(5).epsilon_spent;
  server::ServerOptions options = TestServerOptions();
  options.registry_path = registry_path;
  options.default_tenant_budget = 1.5 * eps;

  auto load = [](server::Server& daemon, const std::string& name,
                 uint64_t seed) {
    server::Request request;
    request.op = server::RequestOp::kLoad;
    request.id = 1;
    request.tenant = "alice";
    request.name = name;
    request.artifact = ArtifactFile(seed);
    return daemon.Handle(request).status;
  };

  {
    auto first = server::Server::Start(options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(load(*first.value(), "r1", 5).ok());
    EXPECT_NEAR(first.value()->ledger().Spent("alice"), eps, 1e-9);
    first.value()->Stop();
    first.value()->Wait();
  }

  // A fresh process with a memory-only ledger would let alice pay for r2
  // again from zero. The registry-backed one must not.
  auto second = server::Server::Start(options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NEAR(second.value()->ledger().Spent("alice"), eps, 1e-9)
      << "durable charge lost across restart";
  const util::Status overdraw = load(*second.value(), "r2", 11);
  ASSERT_FALSE(overdraw.ok());
  EXPECT_EQ(overdraw.code(), util::StatusCode::kResourceExhausted)
      << overdraw.ToString();
  // The release she already paid for stays free, even under a new name.
  EXPECT_TRUE(load(*second.value(), "r1-again", 5).ok());
  EXPECT_NEAR(second.value()->ledger().Spent("alice"), eps, 1e-9);
  second.value()->Stop();
  second.value()->Wait();
  std::remove(registry_path.c_str());
}

TEST(ServerTcpTest, DrainFlushesQueuedResponsesAndCheckpoints) {
  const std::string registry_path = RegistryTempPath("drain");
  server::ServerOptions options = TestServerOptions();
  options.registry_path = registry_path;
  auto started = server::Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<server::Server> owned = std::move(started).value();
  server::Server& daemon = *owned;

  auto client = server::Client::Connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(client.ok());
  server::Request load;
  load.op = server::RequestOp::kLoad;
  load.id = 1;
  load.tenant = "alice";
  load.name = "m";
  load.artifact = ArtifactFile(5);
  ASSERT_TRUE(client.value().Call(load).ok());

  // Issue a sample from a second thread, then drain: in-flight work must
  // finish and its response must flush over the half-closed connection.
  server::Request sample;
  sample.op = server::RequestOp::kSample;
  sample.id = 2;
  sample.tenant = "alice";
  sample.name = "m";
  sample.seed = 5;
  util::Status transport = util::Status::Internal("not run");
  util::Status answer = util::Status::Internal("not run");
  std::thread caller([&] {
    auto response = client.value().Call(sample);
    transport = response.status();
    if (response.ok()) answer = response.value().status;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  daemon.Drain();
  caller.join();
  ASSERT_TRUE(transport.ok()) << transport.ToString();
  EXPECT_TRUE(answer.ok()) << answer.ToString();
  daemon.Wait();
  owned.reset();  // releases the registry's flock

  // Wait() checkpointed the registry: reopening replays exactly one
  // checkpoint record carrying alice's charge.
  auto reg = registry::ArtifactRegistry::Open(registry_path, {});
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  EXPECT_EQ(reg.value()->Stats().recovered_records, 1u);
  ASSERT_EQ(reg.value()->TenantCharges().size(), 1u);
  EXPECT_EQ(reg.value()->TenantCharges()[0].tenant, "alice");
  std::remove(registry_path.c_str());
}

// ---------------------------------------- shared sampler pool, TCP_NODELAY --

/// Reads from `fd` until `lines` newline-terminated responses have arrived
/// (or the connection fails); returns how many did.
int ReadLines(int fd, int lines) {
  int got = 0;
  char buf[4096];
  while (got < lines) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    got += static_cast<int>(std::count(buf, buf + n, '\n'));
  }
  return got;
}

TEST(ServerTcpTest, PipelinedResponsesAreNotHeldByNagle) {
  auto started = server::Server::Start(TestServerOptions());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();

  server::Request stats;
  stats.op = server::RequestOp::kStats;
  const std::string line = server::SerializeRequest(stats) + "\n";
  const int fd = RawConnect(daemon.port());
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  // A few lock-step exchanges first: they put the connection in the
  // interactive mode where the client's kernel delays its ACKs (>= 40 ms).
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(line.size()));
    ASSERT_EQ(ReadLines(fd, 1), 1);
  }
  // Then ten requests in one write, the pipelining client's shape. With
  // Nagle on the daemon's socket, the responses after the first wait for
  // that delayed ACK.
  constexpr int kRequests = 10;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) burst += line;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  const int lines = ReadLines(fd, kRequests);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ::close(fd);
  EXPECT_EQ(lines, kRequests);
  // Below one delayed-ACK timeout: a single Nagle stall fails this.
  EXPECT_LT(elapsed_ms, 30.0) << "pipelined responses stalled";

  daemon.Stop();
  daemon.Wait();
}

TEST(ServerTcpTest, TwoHotEnginesOnTheSharedPoolMatchTheirOracles) {
  // Both engines run on the daemon's one sampler pool; concurrent clients
  // of both keep batches of each in flight at once, so Run is called from
  // several daemon workers concurrently.
  server::ServerOptions options = TestServerOptions();
  options.engine_threads = 4;
  auto started = server::Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();
  EXPECT_EQ(daemon.sampler_threads(), 4);

  struct Hot {
    const char* name;
    uint64_t artifact_seed;
    uint64_t sample_seed;
  };
  const Hot hot[2] = {{"a", 5, 77}, {"b", 6, 88}};
  for (const Hot& h : hot) {
    server::Request load;
    load.op = server::RequestOp::kLoad;
    load.id = 1;
    load.tenant = "alice";
    load.name = h.name;
    load.artifact = ArtifactFile(h.artifact_seed);
    ASSERT_TRUE(daemon.Handle(load).status.ok()) << h.name;
  }

  // Client c serves engine c % 2, three lock-step requests each.
  constexpr int kClients = 8;
  constexpr int kPerClient = 3;
  constexpr int kPerEngine = kClients / 2 * kPerClient;
  std::vector<std::vector<uint64_t>> got(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &hot, &daemon, &got, &errors] {
      const Hot& h = hot[c % 2];
      auto client = server::Client::Connect("127.0.0.1", daemon.port());
      if (!client.ok()) {
        errors[static_cast<size_t>(c)] = client.status().ToString();
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        server::Request request;
        request.op = server::RequestOp::kSample;
        request.id = static_cast<uint64_t>(c * kPerClient + i);
        request.tenant = "alice";
        request.name = h.name;
        request.seed = h.sample_seed;
        request.sequence = static_cast<uint64_t>(c / 2 * kPerClient + i);
        auto response = client.value().Call(request);
        if (!response.ok() || !response.value().status.ok() ||
            response.value().graphs.size() != 1) {
          errors[static_cast<size_t>(c)] =
              response.ok() ? response.value().status.ToString()
                            : response.status().ToString();
          return;
        }
        got[static_cast<size_t>(c)].push_back(
            response.value().graphs[0].checksum);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  const std::vector<uint64_t> oracle[2] = {
      OracleChecksums(hot[0].artifact_seed, hot[0].sample_seed, 0,
                      kPerEngine),
      OracleChecksums(hot[1].artifact_seed, hot[1].sample_seed, 0,
                      kPerEngine)};
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(errors[static_cast<size_t>(c)].empty())
        << "client " << c << ": " << errors[static_cast<size_t>(c)];
    ASSERT_EQ(got[static_cast<size_t>(c)].size(),
              static_cast<size_t>(kPerClient));
    for (int i = 0; i < kPerClient; ++i) {
      EXPECT_EQ(got[static_cast<size_t>(c)][static_cast<size_t>(i)],
                oracle[c % 2][static_cast<size_t>(c / 2 * kPerClient + i)])
          << "client " << c << " request " << i;
    }
  }

  daemon.Stop();
  daemon.Wait();
}

TEST(ServerTcpTest, OversizedSampleCountIsRejectedAndTheConnectionServes) {
  auto started = server::Server::Start(TestServerOptions());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();
  server::Request load;
  load.op = server::RequestOp::kLoad;
  load.id = 1;
  load.tenant = "alice";
  load.name = "m";
  load.artifact = ArtifactFile(5);
  ASSERT_TRUE(daemon.Handle(load).status.ok());

  auto client = server::Client::Connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  server::Request request;
  request.op = server::RequestOp::kSample;
  request.id = 2;
  request.tenant = "alice";
  request.name = "m";
  request.seed = 77;
  request.count = server::kMaxSampleCount + 1;
  ASSERT_TRUE(client.value().Send(request).ok());
  auto rejected = client.value().ReadResponse();
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected.value().status.code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(rejected.value().graphs.empty());

  // The same connection still serves the next request.
  request.id = 3;
  request.count = 1;
  auto served = client.value().Call(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(served.value().status.ok())
      << served.value().status.ToString();
  ASSERT_EQ(served.value().graphs.size(), 1u);
  EXPECT_EQ(served.value().graphs[0].checksum,
            OracleChecksums(5, 77, 0, 1)[0]);

  daemon.Stop();
  daemon.Wait();
}

TEST(ServerTcpTest, AgmAndCommunityDpEnginesHotAtOnceMatchTheirOracles) {
  // community_dp batches fan out on the daemon's one sampler pool exactly
  // like agm's. Clients of both engines keep multi-graph requests of each
  // in flight at once, so both mechanisms' samplers run on the pool
  // concurrently.
  server::ServerOptions options = TestServerOptions();
  options.engine_threads = 4;
  auto started = server::Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();

  struct Hot {
    const char* name;
    const pipeline::ReleaseArtifact* artifact;
    std::string path;
  };
  const Hot hot[2] = {{"agm", &FittedArtifact(5), ArtifactFile(5)},
                      {"cdp", &CommunityArtifact(), CommunityArtifactFile()}};
  for (const Hot& h : hot) {
    server::Request load;
    load.op = server::RequestOp::kLoad;
    load.id = 1;
    load.tenant = "alice";
    load.name = h.name;
    load.artifact = h.path;
    const server::Response loaded = daemon.Handle(load);
    ASSERT_TRUE(loaded.status.ok()) << h.name << ": "
                                    << loaded.status.ToString();
  }

  // Client c serves engine c % 2: three lock-step requests of two graphs.
  constexpr uint64_t kSeed = 31;
  constexpr int kClients = 8;
  constexpr int kPerClient = 3;
  constexpr int kCount = 2;
  constexpr int kPerEngine = kClients / 2 * kPerClient * kCount;
  std::vector<std::vector<uint64_t>> got(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &hot, &daemon, &got, &errors] {
      auto client = server::Client::Connect("127.0.0.1", daemon.port());
      if (!client.ok()) {
        errors[static_cast<size_t>(c)] = client.status().ToString();
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        server::Request request;
        request.op = server::RequestOp::kSample;
        request.id = static_cast<uint64_t>(c * kPerClient + i);
        request.tenant = "alice";
        request.name = hot[c % 2].name;
        request.seed = kSeed;
        request.sequence =
            static_cast<uint64_t>((c / 2 * kPerClient + i) * kCount);
        request.count = kCount;
        auto response = client.value().Call(request);
        if (!response.ok() || !response.value().status.ok() ||
            response.value().graphs.size() != kCount) {
          errors[static_cast<size_t>(c)] =
              response.ok() ? response.value().status.ToString()
                            : response.status().ToString();
          return;
        }
        for (const auto& graph : response.value().graphs) {
          got[static_cast<size_t>(c)].push_back(graph.checksum);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  const std::vector<uint64_t> oracle[2] = {
      OracleChecksums(*hot[0].artifact, kSeed, 0, kPerEngine),
      OracleChecksums(*hot[1].artifact, kSeed, 0, kPerEngine)};
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(errors[static_cast<size_t>(c)].empty())
        << "client " << c << ": " << errors[static_cast<size_t>(c)];
    ASSERT_EQ(got[static_cast<size_t>(c)].size(),
              static_cast<size_t>(kPerClient * kCount));
    for (int k = 0; k < kPerClient * kCount; ++k) {
      EXPECT_EQ(got[static_cast<size_t>(c)][static_cast<size_t>(k)],
                oracle[c % 2][static_cast<size_t>(
                    c / 2 * kPerClient * kCount + k)])
          << hot[c % 2].name << " client " << c << " graph " << k;
    }
  }

  daemon.Stop();
  daemon.Wait();
}

TEST(ServerTest, DaemonEnginesAreNotChargedForTheSharedPool) {
  server::ServerOptions options = TestServerOptions();
  options.engine_threads = 4;
  auto started = server::Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::Server& daemon = *started.value();

  server::Request load;
  load.op = server::RequestOp::kLoad;
  load.id = 1;
  load.tenant = "alice";
  load.name = "m";
  load.artifact = ArtifactFile(5);
  const server::Response response = daemon.Handle(load);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  double engine_bytes = -1.0;
  for (const auto& [key, value] : response.stats) {
    if (key == "engine_bytes") engine_bytes = value;
  }

  // The same artifact on a borrowed pool, and on an owned pool of the
  // same size: only the owner pays for the workers.
  util::WorkerPool pool(4);
  pipeline::EngineOptions borrowed;
  borrowed.pool = &pool;
  pipeline::EngineOptions owning;
  owning.threads = 4;
  auto on_borrowed = pipeline::ReleaseEngine::Create(FittedArtifact(5),
                                                     borrowed);
  auto on_owned = pipeline::ReleaseEngine::Create(FittedArtifact(5), owning);
  ASSERT_TRUE(on_borrowed.ok() && on_owned.ok());
  EXPECT_EQ(engine_bytes,
            static_cast<double>(on_borrowed.value()->ApproxBytes()));
  EXPECT_LT(on_borrowed.value()->ApproxBytes(),
            on_owned.value()->ApproxBytes());
  EXPECT_EQ(daemon.CacheStats().bytes_in_use,
            on_borrowed.value()->ApproxBytes());

  daemon.Stop();
  daemon.Wait();
}

}  // namespace
}  // namespace agmdp
