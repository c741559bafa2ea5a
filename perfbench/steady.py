#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each end-to-end
metric's median and quartile spread ((Q3 - Q1) / median).

Usage (from the repository root):

    python3 perfbench/steady.py --workload served_mixed --seeds 1-5 \
        [--seconds 8]

Bounds come from BENCHMARK.json; a spread above a third of its metric's
bound is flagged. setup_s is reported but not held to its bound (only its
median is compared between commits).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name, 0.0)
        flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- wide"
        print(f"{name:16s} median {med:14.6g} spread {spread:7.4f} "
              f"bound {bound:5.3f}{flag}")


if __name__ == "__main__":
    main()
