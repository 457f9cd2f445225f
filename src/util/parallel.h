// Deterministic parallelism utility — the ONE threading layer of the
// library (DESIGN.md "Determinism contract" / "Hot-path memory layout").
//
// WorkerPool is a persistent pool dispatching indexed task batches. The
// sampler hot path shares one across many small batches (one sharded
// proposal pass plus one Θ'F measurement per acceptance iteration); the
// fused analytics kernel builds one per call and runs its four phases as
// batches of contiguous node ranges, merging per-task tallies in task
// order and reducing floating-point partials in node order itself.
//
// The pool owns no util::Rng: randomness, when present, comes from fixed
// per-task substreams chosen by the caller, so results are
// bitwise-identical at any thread count.
#pragma once

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace agmdp::util {

/// CPUs actually available to this process — the affinity mask (cpuset /
/// taskset / container quota), not the machine's core count.
/// hardware_concurrency() reports every core in the box, so a pool sized by
/// it inside a 4-CPU cgroup on a 128-core host would spawn 128 workers
/// timeslicing over 4 CPUs. Cached after the first call (affinity changes
/// mid-process are rare and only affect default sizing, never results).
inline int AvailableConcurrency() {
  static const int cached = [] {
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      const int count = CPU_COUNT(&mask);
      if (count > 0) return count;
    }
#endif
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }();
  return cached;
}

/// Resolves a thread-count request: any value <= 0 selects the available
/// concurrency (the process affinity mask, minimum 1); positive values are
/// returned as-is.
inline int ResolveThreadCount(int threads) {
  if (threads > 0) return threads;
  return AvailableConcurrency();
}

/// \brief Persistent worker pool dispatching indexed task batches.
///
/// Construction spawns `ResolveThreadCount(threads) - 1` workers that park
/// on a condition variable between batches; `Run(num_tasks, fn)` hands out
/// task indices 0..num_tasks-1 through a shared atomic counter (the calling
/// thread participates) and returns once every task has finished. Which
/// worker executes which index is unspecified — callers own determinism by
/// making each task a pure function of its index (fixed Rng substreams,
/// disjoint output slots) and by merging results in index order themselves.
///
/// One pool may be shared by many callers (the serving daemon shares one
/// across every engine it builds): concurrent Run calls take turns, each
/// batch running to completion on the whole pool before the next starts.
class WorkerPool {
 public:
  explicit WorkerPool(int threads) {
    const int n = std::max(1, ResolveThreadCount(threads));
    num_workers_ = n;
    workers_.reserve(n - 1);
    for (int i = 0; i < n - 1; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers, including the thread that calls Run.
  int num_workers() const { return num_workers_; }

  /// Runs fn(0), ..., fn(num_tasks - 1), each exactly once, and returns
  /// when all have completed. Safe to call from several threads at once
  /// (their batches take turns). fn must not throw and must not call Run
  /// on the same pool (no nesting).
  void Run(int num_tasks, const std::function<void(int)>& fn) {
    if (num_tasks <= 0) return;
    if (workers_.empty() || num_tasks == 1) {
      for (int i = 0; i < num_tasks; ++i) fn(i);
      return;
    }
    const std::lock_guard<std::mutex> turn(run_mu_);
    {
      std::unique_lock<std::mutex> lock(mu_);
      // A worker from the previous batch may still be draining its final
      // (empty) counter fetch; batch state is only mutated once none are.
      idle_.wait(lock, [this] { return active_ == 0; });
      fn_ = &fn;
      num_tasks_ = num_tasks;
      remaining_.store(num_tasks, std::memory_order_relaxed);
      next_.store(0, std::memory_order_relaxed);
      ++batch_;
    }
    wake_.notify_all();
    Drain();
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
  }

 private:
  // Pulls task indices until the batch counter is exhausted.
  void Drain() {
    const int limit = num_tasks_;
    const std::function<void(int)>& fn = *fn_;
    for (;;) {
      const int i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= limit) return;
      fn(i);
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        { const std::lock_guard<std::mutex> lock(mu_); }
        done_.notify_all();
      }
    }
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return shutdown_ || batch_ != seen; });
      if (shutdown_) return;
      seen = batch_;
      ++active_;
      lock.unlock();
      Drain();
      lock.lock();
      if (--active_ == 0) idle_.notify_one();
    }
  }

  /// Held by Run for a whole batch: concurrent callers take turns.
  std::mutex run_mu_;
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::condition_variable done_;
  uint64_t batch_ = 0;
  int active_ = 0;
  bool shutdown_ = false;
  const std::function<void(int)>* fn_ = nullptr;
  int num_tasks_ = 0;
  std::atomic<int> next_{0};
  std::atomic<int> remaining_{0};
  std::vector<std::thread> workers_;
  int num_workers_ = 1;
};

}  // namespace agmdp::util
