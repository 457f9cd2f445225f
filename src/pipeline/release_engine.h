// The serving half of the release pipeline: a handle built once from a
// ReleaseArtifact that samples synthetic graphs on demand.
//
// Fit once / sample many (Theorem 2): the artifact's parameters were
// learned under the accountant, so every sample the engine serves is pure
// post-processing at zero additional privacy cost. The engine amortizes
// everything that does not depend on the individual sample:
//
//   * one persistent util::WorkerPool for the sampler hot path (no thread
//     spawn per request) — its own, or one borrowed from the caller (the
//     serving daemon shares one pool across every engine it builds);
//   * optionally, one calibration run at construction whose converged
//     acceptance vector A warm-starts every request — steady-state serving
//     then generates the structure once through the calibrated filter
//     instead of iterating the full cold acceptance loop per sample.
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

struct EngineOptions {
  /// Serving pool workers (0 = hardware concurrency, capped at the sampler
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
  /// paper's cold per-sample loop exactly (the legacy free functions do).
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

/// \brief A fit-once / sample-many serving handle over a ReleaseArtifact.
///
/// The engine serves every registered release mechanism behind one
/// interface: "agm" artifacts take the dedicated calibrated path below,
/// any other tag resolves a mechanisms::ArtifactSampler from the mechanism
/// registry and delegates to it under the same Substream(seed, sequence)
/// request keying — so the cache, the daemon, and the CLI never branch on
/// the mechanism themselves.
class ReleaseEngine {
 public:
  /// Validates the artifact (schema version, mechanism tag, registry
  /// model, parameter sanity), spawns the persistent pool, and runs the
  /// calibration sample when requested (AGM only; other mechanisms have
  /// no acceptance loop to calibrate).
  static util::Result<std::unique_ptr<ReleaseEngine>> Create(
      ReleaseArtifact artifact, const EngineOptions& options = {});

  ReleaseEngine(const ReleaseEngine&) = delete;
  ReleaseEngine& operator=(const ReleaseEngine&) = delete;

  const ReleaseArtifact& artifact() const { return artifact_; }

  /// Approximate resident bytes of this serving handle: the artifact's
  /// parameter vectors plus the calibrated acceptance vector and, for a
  /// pool the engine owns, a fixed per-worker overhead (thread stack +
  /// bookkeeping). A borrowed pool is charged to its owner, not to every
  /// engine that runs on it. The sizing hook the server's byte-budgeted
  /// engine cache charges admissions by; an estimate, not an audit —
  /// stable for a given artifact and pool size, which is what budget
  /// arithmetic needs.
  uint64_t ApproxBytes() const;

  /// Whether requests are served from a calibrated acceptance vector.
  bool calibrated() const { return !calibrated_acceptance_.empty(); }
  const std::vector<double>& calibrated_acceptance() const {
    return calibrated_acceptance_;
  }

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
  /// substream — the contract of the legacy pipeline::SampleRelease, which
  /// wraps this. Thread-safe, but concurrent callers take turns on the
  /// engine pool.
  util::Result<graph::AttributedGraph> SampleFromStream(util::Rng& rng) const;

 private:
  /// Runs on options.pool, or on an owned pool of `owned_pool_workers`
  /// when that is > 0.
  ReleaseEngine(ReleaseArtifact artifact, const EngineOptions& options,
                agm::AgmSampleOptions base_options, int owned_pool_workers);

  /// The resolved sampler options for one request (warm start + refinement
  /// count applied when calibrated).
  agm::AgmSampleOptions RequestOptions(int refine_iterations) const;

  const ReleaseArtifact artifact_;
  const EngineOptions options_;
  /// Registry-resolved sampler options (model kind / generator bound,
  /// artifact acceptance defaults applied).
  agm::AgmSampleOptions base_options_;
  /// Converged acceptance vector of the calibration sample; empty when the
  /// engine is not calibrated.
  std::vector<double> calibrated_acceptance_;
  /// Mechanism-registry sampling handle; null for "agm" artifacts (which
  /// use the sampler path below). When set, every Sample* method
  /// delegates to it.
  std::shared_ptr<const mechanisms::ArtifactSampler> sampler_;
  /// The persistent serving pool, when the engine owns it.
  std::optional<util::WorkerPool> owned_pool_;
  /// The pool every pooled request runs on: &*owned_pool_ or the borrowed
  /// EngineOptions::pool (unused by non-AGM mechanisms). Concurrent users
  /// take turns inside WorkerPool::Run; requests with threads <= 1 never
  /// touch it and run fully concurrently.
  util::WorkerPool* pool_ = nullptr;
};

}  // namespace agmdp::pipeline
