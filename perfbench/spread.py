#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload i3d --seeds 1-10

Runs perfbench/run.py once per seed (untraced), then prints for each
end-to-end metric the median, the first and third quartile (Python's
statistics.quantiles(values, n=4)), and the spread (Q3 - Q1) / median next
to the metric's bound from BENCHMARK.json. A spread at or above a third of
the bound is marked: the benchmark is steady when no line is marked.

    python3 perfbench/spread.py --workload i3d --seeds 1-10 --save .bench_build/a.json
    python3 perfbench/spread.py --workload i3d --seeds 1-10 --against .bench_build/a.json

--save writes the per-seed values; --against also prints how far each
median moved from those of a saved set, in the metric's worse direction,
as a share of the saved median, and marks a move beyond the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--save", help="write the per-seed values to this file")
    parser.add_argument("--against", help="compare medians with a --save file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        last = proc.stdout.strip().split("\n")[-1] if proc.stdout.strip() else ""
        if not last.startswith("{"):
            sys.exit("seed %d: run failed\n%s" % (seed, proc.stderr[-2000:]))
        result = json.loads(last)
        if proc.returncode != 0 or not result["correct"]:
            sys.exit("seed %d: incorrect result\n%s" % (seed, proc.stdout[-3000:]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v[-1]) for k, v in values.items())), flush=True)

    print("\n%-22s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        mark = "" if spread < m["bound"] / 3 else "  <- unsteady"
        print("%-22s %12.5g %12.5g %12.5g %8.3f %6.2f%s" %
              (m["name"], med, q1, q3, spread, m["bound"], mark))

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
        print("\n%-22s %12s %12s %8s %6s" %
              ("metric", "saved", "now", "worse", "bound"))
        for m in spec["end_to_end"]:
            old_med = statistics.median(before[m["name"]])
            new_med = statistics.median(values[m["name"]])
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (new_med - old_med) / old_med if old_med else 0.0
            mark = "" if worse <= m["bound"] else "  <- beyond bound"
            print("%-22s %12.5g %12.5g %8.3f %6.2f%s" %
                  (m["name"], old_med, new_med, worse, m["bound"], mark))


if __name__ == "__main__":
    main()
