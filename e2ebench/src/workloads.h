// The benchmark workloads (see e2ebench/WORKLOADS.md for why each
// exists, its loop shape, input size and the settings it overrides).
#pragma once

#include <memory>

#include "e2ebench/src/harness.h"

namespace e2e {

std::unique_ptr<Workload> MakeReleaseWorkload(const RunContext& ctx);
std::unique_ptr<Workload> MakeServeBatchWorkload(const RunContext& ctx);

/// The workload named by `ctx.workload`; nullptr for an unknown name.
inline std::unique_ptr<Workload> MakeWorkload(const RunContext& ctx) {
  if (ctx.workload == "release") return MakeReleaseWorkload(ctx);
  if (ctx.workload == "serve_batch") return MakeServeBatchWorkload(ctx);
  return nullptr;
}

}  // namespace e2e
