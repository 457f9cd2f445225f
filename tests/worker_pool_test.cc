// util::WorkerPool contract tests (ctest label: concurrency — the set the
// TSan CI job runs): every task of a batch runs exactly once, a one-worker
// pool runs inline in index order, and several threads may share one pool —
// the serving daemon's shape, where every engine runs on the same pool —
// with each caller's batch still complete and its outputs in index order.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/util/parallel.h"

namespace agmdp {
namespace {

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce) {
  util::WorkerPool pool(4);
  for (int batch = 0; batch < 50; ++batch) {
    std::vector<int> hits(97, 0);
    pool.Run(97, [&](int i) { ++hits[i]; });
    for (int i = 0; i < 97; ++i) ASSERT_EQ(hits[i], 1) << "batch " << batch;
  }
}

TEST(WorkerPoolTest, SingleWorkerRunsInline) {
  util::WorkerPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1);
  std::vector<int> order;
  pool.Run(8, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

/// The value task i of batch b on caller c must produce.
uint64_t TaskValue(int caller, int batch, int i) {
  uint64_t x = (static_cast<uint64_t>(caller) << 40) ^
               (static_cast<uint64_t>(batch) << 20) ^
               static_cast<uint64_t>(i);
  x *= 0x9e3779b97f4a7c15ULL;
  return x ^ (x >> 29);
}

TEST(WorkerPoolTest, ConcurrentCallersTakeTurns) {
  util::WorkerPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kBatches = 200;
  std::vector<std::string> errors(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &pool, &errors] {
      for (int batch = 0; batch < kBatches; ++batch) {
        // Batch sizes differ between callers and batches, so turns end at
        // different times and the task counter is reset under contention.
        const int tasks = 1 + (c * 37 + batch * 13) % 96;
        std::vector<int> hits(static_cast<size_t>(tasks), 0);
        std::vector<uint64_t> out(static_cast<size_t>(tasks), 0);
        pool.Run(tasks, [&](int i) {
          ++hits[static_cast<size_t>(i)];
          out[static_cast<size_t>(i)] = TaskValue(c, batch, i);
        });
        for (int i = 0; i < tasks; ++i) {
          if (hits[static_cast<size_t>(i)] != 1 ||
              out[static_cast<size_t>(i)] != TaskValue(c, batch, i)) {
            errors[static_cast<size_t>(c)] =
                "batch " + std::to_string(batch) + " task " +
                std::to_string(i) + " ran " +
                std::to_string(hits[static_cast<size_t>(i)]) + " times";
            return;
          }
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(errors[static_cast<size_t>(c)].empty())
        << "caller " << c << ": " << errors[static_cast<size_t>(c)];
  }
}

}  // namespace
}  // namespace agmdp
