// The serving half of the release pipeline: a handle built once from a
// ReleaseArtifact that samples synthetic graphs on demand.
//
// Fit once / sample many (Theorem 2): the artifact's parameters were
// learned under the accountant, so every sample the engine serves is pure
// post-processing at zero additional privacy cost. The engine serves every
// registered release mechanism the same way: Create resolves the
// artifact's tag in the mechanism registry (src/mechanisms/) and keeps the
// mechanisms::ArtifactSampler it builds, which holds all mechanism-specific
// serving state (for "agm": the structural-model resolution and the
// calibrated acceptance vector). The engine itself only owns what every
// mechanism shares:
//
//   * validation of the artifact and the options;
//   * one persistent util::WorkerPool for the sampler hot path (no thread
//     spawn per request) — its own, or one borrowed from the caller (the
//     serving daemon shares one pool across every engine it builds);
//   * the request keying below, and a SampleMany that fans out over the
//     pool.
//
// Determinism / threading contract: Sample(request) is thread-safe and
// draws exclusively from util::Rng::Substream(request.seed,
// request.sequence) — a pure function of the request and the artifact — so
// any interleaving of concurrent requests is bitwise-identical to issuing
// them sequentially. SampleMany fans a contiguous block of sequence numbers
// out over the engine pool and returns the graphs in sequence order; its
// output is bitwise-identical at any pool size, and equal to a sequential
// Sample loop over the same requests.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/graph/attributed_graph.h"
#include "src/pipeline/release_artifact.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace agmdp::mechanisms {
class ArtifactSampler;
}  // namespace agmdp::mechanisms

namespace agmdp::pipeline {

/// The last three fields are read by the "agm" sampler only (the other
/// mechanisms have no acceptance loop).
struct EngineOptions {
  /// Serving pool workers (0 = the available cores, capped at the sampler
  /// shard count). The pool size never affects sampled bits. Ignored when
  /// `pool` is set.
  int threads = 0;
  /// Borrowed serving pool. Null (the default): the engine spawns and owns
  /// a pool of `threads` workers. Set: the engine spawns none and runs on
  /// this one, which must outlive it — plumbing for the serving daemon,
  /// which builds every engine on its one shared pool.
  util::WorkerPool* pool = nullptr;
  /// Run one calibration sample at construction (full acceptance loop,
  /// from the fixed calibration substream) and warm-start every request
  /// with its converged acceptance vector. Disable to reproduce the
  /// paper's cold per-sample loop exactly (SampleRelease and
  /// RunPrivateRelease do).
  bool calibrate = true;
  /// Acceptance refinements per request once calibrated (requests may
  /// override). 0 = trust the calibrated vector: the loop had converged,
  /// so steady-state serving is one filtered generation per sample.
  int default_refine_iterations = 0;
  /// Model-specific sampler knobs (FCL/TriCycLe options etc.). The model /
  /// generator / acceptance settings inside are overridden by the registry
  /// resolution of the artifact's model and the artifact's baked defaults.
  agm::AgmSampleOptions sample;
};

/// \brief One deterministic serving request.
struct SampleRequest {
  /// Substream family; the request draws from Substream(seed, sequence).
  uint64_t seed = 1;
  uint64_t sequence = 0;
  /// Acceptance refinements for this request; -1 = engine default. Ignored
  /// (full cold loop) when the engine is not calibrated.
  int refine_iterations = -1;
  /// Intra-sample sampler workers: 1 (default) runs inline on the calling
  /// thread — fully concurrent with other requests; > 1 borrows the
  /// engine pool (requests then take turns on it). Never changes the bits.
  int threads = 1;
};

/// \brief A fit-once / sample-many serving handle over a ReleaseArtifact,
/// for every registered release mechanism alike — so the cache, the
/// daemon, and the CLI never branch on the mechanism themselves.
class ReleaseEngine {
 public:
  /// Validates the artifact (schema version, registered mechanism tag,
  /// mechanism-specific sanity) and the options, sets up the pool, and
  /// builds the mechanism's sampler on it (for "agm": resolves the
  /// structural model and runs the calibration sample when requested).
  static util::Result<std::unique_ptr<ReleaseEngine>> Create(
      ReleaseArtifact artifact, const EngineOptions& options = {});

  ReleaseEngine(const ReleaseEngine&) = delete;
  ReleaseEngine& operator=(const ReleaseEngine&) = delete;
  ~ReleaseEngine();

  const ReleaseArtifact& artifact() const { return artifact_; }

  /// The mechanism's serving handle (see mechanisms::ArtifactSampler).
  const mechanisms::ArtifactSampler& sampler() const { return *sampler_; }

  /// Approximate resident bytes of this serving handle: the artifact's
  /// parameter vectors plus the sampler's serving state and, for a pool
  /// the engine owns, a fixed per-worker overhead (thread stack +
  /// bookkeeping). A borrowed pool is charged to its owner, not to every
  /// engine that runs on it. The sizing hook the server's byte-budgeted
  /// engine cache charges admissions by; an estimate, not an audit —
  /// stable for a given artifact and pool size, which is what budget
  /// arithmetic needs.
  uint64_t ApproxBytes() const;

  /// Serves one request. Thread-safe; see the determinism contract above.
  util::Result<graph::AttributedGraph> Sample(
      const SampleRequest& request) const;

  /// Serves requests (seed, sequence), ..., (seed, sequence + n - 1) over
  /// the engine pool and returns the graphs in sequence order. Equal to a
  /// sequential Sample loop, at any pool size. A batch of one skips the
  /// fan-out and gives the single request the whole pool for intra-sample
  /// parallelism (same bits either way).
  util::Result<std::vector<graph::AttributedGraph>> SampleMany(
      int n, const SampleRequest& base = {}) const;

  /// Samples consuming the caller's master stream instead of a request
  /// substream — the one-shot contract of pipeline::SampleRelease and
  /// RunPrivateRelease, which wrap this. Thread-safe, but concurrent
  /// callers take turns on the engine pool.
  util::Result<graph::AttributedGraph> SampleFromStream(util::Rng& rng) const;

 private:
  /// Runs on `borrowed_pool`, or on an owned pool of `owned_pool_workers`
  /// when that is > 0.
  ReleaseEngine(ReleaseArtifact artifact, util::WorkerPool* borrowed_pool,
                int owned_pool_workers);

  const ReleaseArtifact artifact_;
  /// The persistent serving pool, when the engine owns it.
  std::optional<util::WorkerPool> owned_pool_;
  /// The pool every pooled request runs on: &*owned_pool_ or the borrowed
  /// EngineOptions::pool. Concurrent users take turns inside
  /// WorkerPool::Run; requests with threads <= 1 never touch it and run
  /// fully concurrently.
  util::WorkerPool* pool_ = nullptr;
  /// Built by the registry's make_sampler; reads artifact_, so it is
  /// declared after it (and destroyed first).
  std::unique_ptr<const mechanisms::ArtifactSampler> sampler_;
};

}  // namespace agmdp::pipeline
