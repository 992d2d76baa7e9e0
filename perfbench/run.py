#!/usr/bin/env python3
"""Run one workload of the CORBA-LC repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds perfbench/ (which compiles the
libraries from src/) into .bench_build/ -- or into $CARGO_TARGET_DIR when
that is set -- then runs the lcbench binary and checks its output against
BENCHMARK.json: the last line printed is one JSON object with exactly the
keys correct, attempted, failed and metrics, where metrics holds every
end_to_end metric (--trace 0) or every per_layer metric (--trace 1), each
with its declared unit. Any build, run or contract failure exits non-zero
without printing a result.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def quiet(cmd, what):
    """Run a build step; show its output (on stderr) only if it fails."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail(f"{what} failed")


def build():
    """Configure once, then (re)build lcbench."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources (src/) next to perfbench/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
              "cmake configure")
    quiet(["cmake", "--build", out, "--target", "lcbench", "-j", str(BUILD_JOBS)], "build")
    return os.path.join(out, "lcbench")


def check(result, spec, trace):
    """Validate the result object against the BENCHMARK.json contract."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or result[k] < 0:
            fail(f"{k} is not a whole number")
    if result["attempted"] < 1:
        fail("no operation attempted")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metric set differs from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got[name]
        if sorted(m) != ["unit", "value"] or m["unit"] != unit:
            fail(f"metric {name} must carry value and unit {unit}")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            fail(f"metric {name} has no finite value")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-every", type=int, default=0,
                    help="make every k-th servant reply wrong (smoke test only)")
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {a.workload}")

    binary = build()
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.corrupt_every:
        cmd += ["--corrupt-every", str(a.corrupt_every)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"lcbench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"lcbench exited with {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        fail("lcbench printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON")
    check(result, spec, a.trace)
    for ln in lines[:-1]:
        print(ln)
    print(lines[-1])


if __name__ == "__main__":
    main()
