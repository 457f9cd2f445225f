#include "src/pipeline/release_engine.h"

#include <utility>

#include "src/mechanisms/release_mechanism.h"

namespace agmdp::pipeline {

util::Result<std::unique_ptr<ReleaseEngine>> ReleaseEngine::Create(
    ReleaseArtifact artifact, const EngineOptions& options) {
  // Rejects, among others, a tag the mechanism registry does not know.
  if (auto st = ValidateReleaseArtifact(artifact); !st.ok()) return st;
  if (options.default_refine_iterations < 0) {
    return util::Status::InvalidArgument(
        "release engine: default_refine_iterations must be >= 0");
  }
  const mechanisms::MechanismSpec* mechanism =
      mechanisms::FindMechanism(artifact.mechanism);

  const int owned_pool_workers =
      options.pool != nullptr ? 0 : agm::SamplerPoolWorkers(options.threads);
  std::unique_ptr<ReleaseEngine> engine(new ReleaseEngine(
      std::move(artifact), options.pool, owned_pool_workers));
  auto sampler =
      mechanism->make_sampler(engine->artifact_, options, engine->pool_);
  if (!sampler.ok()) return sampler.status();
  engine->sampler_ = std::move(sampler).value();
  return engine;
}

ReleaseEngine::ReleaseEngine(ReleaseArtifact artifact,
                             util::WorkerPool* borrowed_pool,
                             int owned_pool_workers)
    : artifact_(std::move(artifact)), pool_(borrowed_pool) {
  if (owned_pool_workers > 0) {
    owned_pool_.emplace(owned_pool_workers);
    pool_ = &*owned_pool_;
  }
}

ReleaseEngine::~ReleaseEngine() = default;

uint64_t ReleaseEngine::ApproxBytes() const {
  // Per-worker overhead approximates a parked thread: kernel stack plus
  // pool bookkeeping. Deliberately round — the cache budget is a resource
  // guardrail, not an allocator audit. Only an owned pool counts: a
  // borrowed one is shared, and its owner carries it.
  constexpr uint64_t kPerWorkerBytes = 64 * 1024;
  return EstimateArtifactBytes(artifact_) + sampler_->ApproxBytes() +
         (owned_pool_ ? static_cast<uint64_t>(owned_pool_->num_workers())
                      : 0) *
             kPerWorkerBytes +
         sizeof(ReleaseEngine);
}

util::Result<graph::AttributedGraph> ReleaseEngine::Sample(
    const SampleRequest& request) const {
  util::Rng rng = util::Rng::Substream(request.seed, request.sequence);
  return sampler_->Sample(rng, request.refine_iterations,
                          request.threads <= 1 ? nullptr : pool_);
}

util::Result<std::vector<graph::AttributedGraph>> ReleaseEngine::SampleMany(
    int n, const SampleRequest& base) const {
  if (n < 0) {
    return util::Status::InvalidArgument(
        "release engine: SampleMany needs n >= 0");
  }
  if (n == 1) {
    // A single request gains nothing from cross-sample fan-out; hand it
    // the whole pool for intra-sample parallelism instead. The pool never
    // affects bits, so the result is identical either way.
    util::Rng rng = util::Rng::Substream(base.seed, base.sequence);
    auto sample = sampler_->Sample(rng, base.refine_iterations, pool_);
    if (!sample.ok()) return sample.status();
    std::vector<graph::AttributedGraph> graphs;
    graphs.push_back(std::move(sample).value());
    return graphs;
  }
  std::vector<graph::AttributedGraph> graphs(static_cast<size_t>(n));
  std::vector<util::Status> statuses(static_cast<size_t>(n));
  pool_->Run(n, [&](int i) {
    // Task i is exactly Sample({seed, sequence + i, refine, threads: 1})
    // — a pure function of the request, so scheduling cannot change it.
    util::Rng rng = util::Rng::Substream(
        base.seed, base.sequence + static_cast<uint64_t>(i));
    auto sample = sampler_->Sample(rng, base.refine_iterations, nullptr);
    if (sample.ok()) {
      graphs[static_cast<size_t>(i)] = std::move(sample).value();
    } else {
      statuses[static_cast<size_t>(i)] = sample.status();
    }
  });
  for (const util::Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return graphs;
}

util::Result<graph::AttributedGraph> ReleaseEngine::SampleFromStream(
    util::Rng& rng) const {
  return sampler_->Sample(rng, /*refine_iterations=*/-1, pool_);
}

}  // namespace agmdp::pipeline
