#!/usr/bin/env python3
"""Layer-ladder pub/sub benchmark: build, self-test, run one workload.

    python3 ladderbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ViteX source tree. The first run configures and
builds the library and the harness (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, and runs the harness self-test once per
build. Each run then executes ladder_bench, whose last line of output is the
result JSON: --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. The exit code is non-zero if the build, the
self-test or any output check failed. DESIGN.md beside this file explains
the workloads and the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[ladderbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ladderbench")


def run_quiet(cmd, env, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 124


def build(out):
    """Configures and builds ladder_bench; returns its path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no ViteX sources under {ROOT}; nothing to measure")
        return None
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmake_build = os.path.join(out, "cmake")
    if not os.path.isfile(os.path.join(cmake_build, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", cmake_build,
                      "-DCMAKE_BUILD_TYPE=Release"], env, 600) != 0:
            log("cmake configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", cmake_build, "--target", "ladder_bench",
                  "-j", jobs], env, 800) != 0:
        log("build failed")
        return None
    binary = os.path.join(cmake_build, "ladder_bench")
    return binary if os.access(binary, os.X_OK) else None


def self_test(binary, out):
    """Runs the harness self-test once per distinct binary."""
    st = os.stat(binary)
    stamp = os.path.join(out, "selftest.ok")
    key = f"{st.st_size} {st.st_mtime_ns}"
    if os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == key:
                return True
    if run_quiet([binary, "--self-test"], None, 120) != 0:
        log("harness self-test failed")
        return False
    with open(stamp, "w") as f:
        f.write(key + "\n")
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = build(out)
    if binary is None or not self_test(binary, out):
        return 1
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", runs]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        log("ladder_bench printed no result")
        return 1
    want = expected_metrics(args.trace)
    if sorted(result.get("metrics", {})) != sorted(want):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(want) - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - set(want))}")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
