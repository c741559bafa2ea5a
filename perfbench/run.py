#!/usr/bin/env python3
"""Builds the repository and the perfbench binary, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch_library --seed 1 \
        --seconds 8 --trace 0

The repository's own CMake project builds the `diffpattern` library under
.bench_build/repo (with the project's flags); perfbench/CMakeLists.txt then
builds the benchmark binary against it under .bench_build/perfbench. Later
runs only re-check the build. Everything is written under .bench_build/ (or
$CARGO_TARGET_DIR when set). The binary's last stdout line is the JSON
result; this script exits with the binary's status.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 175  # Per run, build excluded.
WORKLOADS = ("batch_library", "served_mixed", "legalize_sweep")


def fail(message, code=1):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, out):
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    repo_build = out / "repo"
    bench_build = out / "perfbench"
    steps = []
    if not (repo_build / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root), "-B", str(repo_build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(repo_build), "--target",
                  "diffpattern", "-j", jobs])
    if not (bench_build / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(bench_build), "-DCMAKE_BUILD_TYPE=Release",
                      f"-DDP_LIBRARY={repo_build / 'libdiffpattern.a'}"])
    steps.append(["cmake", "--build", str(bench_build), "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if result.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}")
    return bench_build / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (
            root / "src" / "service" / "pattern_service.h").is_file():
        fail(f"{root} holds no DiffPattern sources to build", code=2)
    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    (out / "traces").mkdir(parents=True, exist_ok=True)

    binary = build(root, out)
    trace_file = out / "traces" / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace, "--trace-file", str(trace_file)]
    sys.stdout.flush()
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    print(f"perfbench/run.py: perfbench exited {code} after "
          f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
