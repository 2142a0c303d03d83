#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

One workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload infer_paper --seed 1 --seconds 25 --trace 0

prints the metrics table and, as the last line of standard output, one JSON
object {"correct", "attempted", "failed", "metrics"}. It exits 3 when a
correctness check fails. --seconds defaults to BENCHMARK.json's run_seconds.

Every workload (omit --workload):

    python3 perfbench/run.py --seed 1            # end-to-end metrics
    python3 perfbench/run.py --seed 1 --trace 1  # per-layer metrics + trace tax

prints each metric by name with its unit, records the commit, nproc, CPU
model, compiler, build type and seed beside the results in
<build dir>/perfbench-results.json, and exits nonzero when any correctness
check fails.

    python3 perfbench/run.py --selftest          # the statistics unit tests

Run from the repository root. The program is built from source with CMake
into $CARGO_TARGET_DIR (default .bench_build); build output goes to stderr.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ["infer_paper", "infer_small", "learn_serve", "train_batch"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
EXIT_INCORRECT = 3  # neurobench's code for a run that failed a check


def run_seconds():
    """The run length BENCHMARK.json sets; the one default for --seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return int(json.load(f)["run_seconds"])


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    """Configures and builds; returns False (after logging) on failure."""
    bdir = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", bdir, "-j", jobs, "--target"] + targets,
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run_workload(workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout text or None)."""
    cmd = [os.path.join(build_dir(), "neurobench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    out = done.stdout.decode() if capture else None
    return done.returncode, out


def result_line(text):
    lines = [l for l in (text or "").splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def environment(seed, trace):
    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                for key in ("CMAKE_CXX_COMPILER:", "CMAKE_BUILD_TYPE:"):
                    if line.startswith(key):
                        cache[key] = line.split("=", 1)[1].strip()
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER:", "")
    version = cmd_out([compiler, "--version"]).splitlines()[:1] if compiler else []
    return {
        "commit": cmd_out(["git", "rev-parse", "HEAD"]) or "unknown",
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE:", ""),
        "seed": seed,
        "trace": trace,
    }


def run_all(args):
    env = environment(args.seed, args.trace)
    for key, value in env.items():
        print(f"# {key}: {value}")
    results, ok = {}, True
    for w in WORKLOADS:
        code, out = run_workload(w, args.seed, args.seconds, args.trace, True)
        res = result_line(out)
        if code not in (0, EXIT_INCORRECT) or res is None:
            print(f"{w}: FAILED (exit {code}, no result)")
            ok = False
            continue
        results[w] = res
        verdict = "ok" if res["correct"] and code == 0 else "INCORRECT"
        ok = ok and res["correct"] and code == 0
        print(f"\n{w}: {verdict} (attempted {res['attempted']}, "
              f"failed {res['failed']})")
        for line in out.splitlines():
            if line.startswith("# FAILED") or line.startswith("# train") or \
                    line.startswith("# learner") or line.startswith("# slo"):
                print("  " + line[2:])
        for name, m in res["metrics"].items():
            print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    path = os.path.join(build_dir(), "perfbench-results.json")
    with open(path, "w") as f:
        json.dump({"environment": env, "seconds": args.seconds,
                   "results": results}, f, indent=2)
    print(f"\n# results written to {path}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the statistics unit tests")
    args = ap.parse_args()
    if args.seconds is None and not args.selftest:
        try:
            args.seconds = run_seconds()
        except (OSError, ValueError, KeyError) as e:
            print(f"perfbench: no run length: {e}", file=sys.stderr)
            return 1

    if args.selftest:
        if not build(["stats_test"]):
            return 1
        return subprocess.run([os.path.join(build_dir(), "stats_test")],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    if not build(["neurobench"]):
        return 1
    if args.workload is None:
        return run_all(args)
    code, _ = run_workload(args.workload, args.seed, args.seconds, args.trace,
                           False)
    return code


if __name__ == "__main__":
    sys.exit(main())
