#!/usr/bin/env python3
"""Compare a fresh BENCH_perf.json against the committed baseline.

Usage: check_perf_regression.py FRESH BASELINE [--tolerance=3.0]

Fails (exit 1) when any timing shared by both documents blew up by more
than the tolerance factor, or when a correctness flag regressed. The
tolerance is deliberately generous: the baseline is recorded on whatever
machine cut the commit, CI runs on whatever runner GitHub hands out, and
only order-of-magnitude blowups are actionable from CI. Timings are every
numeric leaf under a key containing "seconds"; near-zero baselines
(< 0.5 ms) are skipped as pure noise. hardware_concurrency is echoed from
both documents so speedup numbers are interpretable (a 1-core container
cannot show parallel speedup).

Only the Python standard library is used.
"""

import json
import sys

# Timings faster than this are dominated by scheduler noise, not work.
MIN_BASELINE_SECONDS = 5e-4

REQUIRED_TRUE_FLAGS = [
    "sampler_deterministic_1_2_4",
    "csr_deterministic_1_2_4",
    "serving_deterministic_1_2_4",
    "fused_deterministic",
    # The daemon path (PR 7): every checksum served over TCP under 4
    # concurrent clients must match the sequential in-process oracle.
    "server_deterministic",
    # Binary container (PR 8): the mmap-backed snapshot must evaluate
    # bitwise-identically to the in-RAM snapshot at 1/2/4 threads.
    "storage_deterministic",
    # Artifact registry (PR 9): identical journaled histories must compact
    # to byte-identical files and recover identical spend — the contract
    # crash recovery depends on.
    "registry_deterministic",
    # Release-mechanism registry (PR 10): refitting community_dp /
    # kanon_baseline from the same substream must reproduce the artifact
    # byte for byte, and engines at different pool sizes must serve
    # bitwise-identical samples.
    "mechanisms_deterministic",
]
REQUIRED_KEYS = [
    "hardware_concurrency",
    "csr_analytics_seconds",
    "sampler_hotpath_seconds",
    "serving_seconds",
    "fused_eval_seconds",
    # `agmdp serve` under concurrent TCP load: wall clock, p50/p99 latency.
    "server_seconds",
    "server_samples_per_sec",
    # Binary container (PR 8): text load vs convert vs verified/unverified
    # mmap open on the same graph.
    "storage_seconds",
    # Artifact registry (PR 9): journaled puts (fsync on/off), recovery
    # replay at Open, checkpoint compaction, resolves.
    "registry_seconds",
    # Release mechanisms (PR 10): fit + 8-sample batch per non-AGM scheme.
    "mechanisms_seconds",
]

# The headline properties, gated machine-independently: each ratio compares
# two implementations timed on the same runner in the same process, so it
# must hold regardless of runner hardware. Margins below the real ratios
# absorb scheduling noise on shared runners (CSR is ~2x, the flat hot path
# ~1.5-2x; a genuine regression lands far below these floors).
# CSR: one structure-only FusedEvaluate (triangles + the clustering family)
# vs the adjacency-list CountTriangles + LocalClusteringCoefficients.
MIN_CSR_SPEEDUP = 0.8
# Flat-memory sampler hot path (PR 4): FlatEdgeSet dedup + dense acceptance
# table vs std::unordered_set + std::function on the same proposal stream.
MIN_HOTPATH_SPEEDUP = 1.0
MIN_EDGE_SET_SPEEDUP = 1.0
# Fit-once / sample-many serving (PR 5): a calibrated ReleaseEngine's
# single-threaded SampleMany vs the same number of full RunPrivateRelease
# calls, both in this process. The engine amortizes the fit and the
# acceptance-loop calibration, so the floor is a genuine 2x even on one
# core (measured ~3-4x); cross-sample pool parallelism on multi-core
# runners only adds to it.
MIN_SERVING_SPEEDUP = 2.0
# Binary graph container (PR 8): a verified mmap open (header CRC + page
# CRC sweep + semantic validation) vs parsing the same graph from the text
# pair, same process, same runner. Measured well over an order of
# magnitude; 5x leaves headroom for slow CI disks.
MIN_BINARY_LOAD_SPEEDUP = 5.0

# Parallel wall-clock speedups, by contrast, are NOT machine-independent:
# a 1-core container runs every "thread count" on the same core and can
# only show overhead. These gates apply when both documents were recorded
# with enough cores to make the ratio meaningful; otherwise they are
# skipped with a printed note.
MIN_CORES_FOR_PARALLEL_GATES = 4
PARALLEL_SPEEDUP_GATES = [
    ("sampler_speedup_4t", 1.2,
     "the sharded sampler must scale on a 4-core runner"),
    ("fused_eval_parallel_speedup_4t", 1.2,
     "the fused evaluation kernel must scale on a 4-core runner"),
]


def timing_leaves(doc, prefix="", in_seconds=False):
    """Yields (path, value) for numeric leaves under *seconds* keys."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            inside = in_seconds or "seconds" in key
            yield from timing_leaves(value, f"{prefix}{key}.", inside)
    elif in_seconds and isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield prefix.rstrip("."), float(doc)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tolerance = 3.0
    for a in argv[1:]:
        if a.startswith("--tolerance="):
            tolerance = float(a.split("=", 1)[1])

    with open(args[0]) as f:
        fresh = json.load(f)
    with open(args[1]) as f:
        baseline = json.load(f)

    failures = []
    for key in REQUIRED_KEYS:
        if key not in fresh:
            failures.append(f"fresh document is missing required key '{key}'")
    for flag in REQUIRED_TRUE_FLAGS:
        if fresh.get(flag) is not True:
            failures.append(f"correctness flag '{flag}' is not true: "
                            f"{fresh.get(flag)!r}")

    speedup_gates = [
        ("csr_triangle_clustering_speedup_1t", MIN_CSR_SPEEDUP,
         "the CSR snapshot kernel must beat the adjacency-list triangle + "
         "clustering kernels"),
        ("sampler_hotpath_speedup", MIN_HOTPATH_SPEEDUP,
         "the flat proposal loop must beat the legacy-equivalent mechanics"),
        ("edge_set_speedup", MIN_EDGE_SET_SPEEDUP,
         "FlatEdgeSet must beat std::unordered_set on the edge workload"),
        ("serving_throughput_speedup", MIN_SERVING_SPEEDUP,
         "ReleaseEngine.SampleMany must serve releases at least 2x faster "
         "than repeated RunPrivateRelease (fit amortized away)"),
        ("binary_load_speedup", MIN_BINARY_LOAD_SPEEDUP,
         "a verified mmap open of the binary container must beat parsing "
         "the text pair"),
    ]
    for key, floor, why in speedup_gates:
        speedup = fresh.get(key)
        if not isinstance(speedup, (int, float)) or speedup <= floor:
            failures.append(
                f"{key} = {speedup!r}: {why} "
                f"(> {floor:.1f}x; both sides timed on this runner)")
        else:
            print(f"{key}: {speedup:.2f}x (must exceed {floor:.1f}x)")

    cores = [doc.get("hardware_concurrency") for doc in (fresh, baseline)]
    if all(isinstance(c, int) and c >= MIN_CORES_FOR_PARALLEL_GATES
           for c in cores):
        for key, floor, why in PARALLEL_SPEEDUP_GATES:
            speedup = fresh.get(key)
            if not isinstance(speedup, (int, float)) or speedup <= floor:
                failures.append(
                    f"{key} = {speedup!r}: {why} (> {floor:.1f}x)")
            else:
                print(f"{key}: {speedup:.2f}x (must exceed {floor:.1f}x)")
    else:
        print(f"note: skipping parallel speedup gates "
              f"({', '.join(key for key, _, _ in PARALLEL_SPEEDUP_GATES)}): "
              f"fresh/baseline cores = {cores[0]!r}/{cores[1]!r}, "
              f"need >= {MIN_CORES_FOR_PARALLEL_GATES} on both")

    if fresh.get("scale") != baseline.get("scale"):
        failures.append(
            f"scale mismatch: fresh {fresh.get('scale')!r} vs baseline "
            f"{baseline.get('scale')!r} — timings are not comparable")

    base_timings = dict(timing_leaves(baseline))
    compared = 0
    for path, value in timing_leaves(fresh):
        base = base_timings.get(path)
        if base is None or base < MIN_BASELINE_SECONDS:
            continue
        compared += 1
        ratio = value / base
        marker = "FAIL" if ratio > tolerance else "ok"
        print(f"  {marker:4} {path:55} {base*1e3:9.2f} ms -> {value*1e3:9.2f} ms"
              f"  ({ratio:.2f}x)")
        if ratio > tolerance:
            failures.append(
                f"{path}: {value:.4f}s vs baseline {base:.4f}s "
                f"({ratio:.2f}x > {tolerance:.2f}x tolerance)")

    print(f"compared {compared} timings "
          f"(baseline cores={baseline.get('hardware_concurrency')}, "
          f"fresh cores={fresh.get('hardware_concurrency')}, "
          f"tolerance {tolerance:.1f}x)")
    if failures:
        print("\nPERF REGRESSION CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
