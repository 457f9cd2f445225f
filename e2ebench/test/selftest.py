#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny input sizes.

    python3 e2ebench/test/selftest.py

Run from the root of a source checkout (it builds the runner through
e2ebench/run.py, into $CARGO_TARGET_DIR or .bench_build). Checks that:
  * BENCHMARK.json keeps to the benchmark contract (keys, names, limits);
  * every workload, untraced and traced, exits 0 with a correct result whose
    metrics are exactly BENCHMARK.json's end-to-end / per-layer tables,
    each with its unit;
  * a deliberately over-budget load is counted as failed (attempted/failed
    and ok_frac), not treated as a crash;
  * outside a source checkout the benchmark fails without a result line.
Exits 1 on the first failed check.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
RUN = ["python3", "e2ebench/run.py"]
WORKLOADS = ("release", "serve_batch")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def check_contract(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        fail("BENCHMARK.json keys %s" % sorted(spec))
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("2 to 8 workloads")
    if not isinstance(spec["run_seconds"], int) or \
            not 1 <= spec["run_seconds"] <= 60:
        fail("run_seconds")
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or \
                "\n" in w["why"] or not NAME.match(w["name"]):
            fail("workload entry %r" % w)
        names.add(w["name"])
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    if "setup_s" not in bounded or bounded["setup_s"]["unit"] != "s" or \
            bounded["setup_s"]["better"] != "lower" or \
            bounded["setup_s"]["bound"] < max(m["bound"]
                                               for m in spec["end_to_end"]):
        fail("setup_s must be in s, lower-better, with the largest bound")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            fail("end_to_end entry %r" % m)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or \
                m["better"] not in ("lower", "higher") or m["name"] in names:
            fail("metric entry %r" % m)
        names.add(m["name"])
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail("per_layer entry %r" % m)
    if os.path.getsize("BENCHMARK.json") > 64 * 1024:
        fail("BENCHMARK.json over 64 KiB")


def run(workload, trace, *extra, cwd=ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny"] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


def result_of(workload, trace, *extra):
    code, lines, err = run(workload, trace, *extra)
    if code != 0 or len(lines) < 2:
        fail("%s trace=%d exited %d\n%s" % (workload, trace, code, err[-2000:]))
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["attempted"] < 1:
        fail("%s trace=%d: %r" % (workload, trace, result))
    for key in ("cores", "simd_isa", "input", "loop"):
        if key not in info:
            fail("%s info lacks %s" % (workload, key))
    return result, info


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_contract(spec)
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        fail("BENCHMARK.json names a workload run.py lacks")

    for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        want = {m["name"]: m["unit"] for m in table}
        for workload in WORKLOADS:
            result, _ = result_of(workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail("%s trace=%d metrics/units differ: %s" % (
                    workload, trace, sorted(set(got.items()) ^
                                            set(want.items()))))
            print("selftest: %s trace=%d ok" % (workload, trace))

    result, _ = result_of("serve_batch", 0, "--probe-over-budget")
    ok_frac = result["metrics"]["ok_frac"]["value"]
    if result["failed"] < 1 or not ok_frac < 1.0:
        fail("over-budget load not counted as failed: %r" % result)
    print("selftest: over-budget load counted as failed ok")

    os.makedirs(".bench_work", exist_ok=True)
    bare = tempfile.mkdtemp(dir=".bench_work")
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("e2ebench", os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        p = subprocess.run(RUN + ["--workload", "release", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True,
                           timeout=180, env=env)
        if p.returncode == 0 or '"metrics"' in p.stdout:
            fail("benchmark ran without the source tree")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: fails without the source tree ok")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
