#!/usr/bin/env python3
"""Builds and runs the Figure-2 benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig2_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and compiles perfbench/ (which compiles the tcmf
libraries from src/) into $CARGO_TARGET_DIR or .bench_build/; later calls
only rebuild what changed. Build output goes to stderr, so the benchmark's
result object stays the last line of stdout. Scratch topics and trace
files go to .bench_out/. --selftest runs the benchmark's own unit checks,
then a one-second run of every workload in both modes whose metric names
and units must match BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if shutil.which(cmd[0]) is None:
            print(f"run.py: {cmd[0]} not found", file=sys.stderr)
            return None
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return out


def git_commit():
    # Look no further up than the checkout root: a checkout that is not a
    # git repository reports "unknown".
    root = os.path.dirname(HERE)
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_bench(binary, args):
    env = dict(os.environ, PERFBENCH_GIT_COMMIT=git_commit())
    try:
        done = subprocess.run([binary] + args, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4
    return done.returncode


def selftest(out):
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode:
        return 1
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            done = subprocess.run(
                [os.path.join(out, "fig2_bench"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", trace],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            good = done.returncode == 0 and result.get("correct") and got == want
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if good else 'FAILED'}")
            if not good:
                ok = False
                print(f"  exit {done.returncode}; missing "
                      f"{sorted(set(want) - set(got))}; unexpected "
                      f"{sorted(set(got) - set(want))}; unit differs "
                      f"{sorted(k for k in got if k in want and got[k] != want[k])}")
    return 0 if ok else 1


def main(argv):
    out = build()
    if out is None:
        return 3
    if argv == ["--selftest"]:
        return selftest(out)
    return run_bench(os.path.join(out, "fig2_bench"), argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
