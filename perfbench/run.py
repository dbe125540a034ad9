#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload i3d --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the duo_* libraries from src/ plus the benchmark in perfbench/cpp)
into .bench_build/perfbench; later calls only rebuild what changed. The
binary's stdout is passed through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is 1 when any
output check failed (correct is false). This wrapper adds two checks
to it: the metrics must be exactly the ones BENCHMARK.json names for the
mode (end_to_end untraced, per_layer traced), and a traced and an untraced
run of the same workload, seed and sources must agree on the outcome digest.
Full records with provenance, and Chrome traces of traced runs, land in
.bench_build/results.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "duo_perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_files():
    """Every file the benchmark binary is built from, in a stable order."""
    out = []
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    out.append(os.path.join(dirpath, name))
    for name in ("bench_common.cpp", "bench_common.hpp"):
        out.append(os.path.join(ROOT, "bench", name))
    return out


def revision():
    """Hash of the sources, prefixed by the git revision when there is one."""
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    sources = "src-" + digest.hexdigest()[:16]
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if (rev.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1] + "/" + sources
    except (OSError, subprocess.SubprocessError):
        pass
    return sources


def build():
    for required in ("src/CMakeLists.txt", "bench/bench_common.cpp",
                     "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("missing %s: run from the root of a full checkout" % required)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "duo_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    os.makedirs(RESULTS, exist_ok=True)
    rev = revision()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", RESULTS, "--revision", rev]
    try:
        proc = subprocess.run(cmd, cwd=RESULTS, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    # The binary exits 1 when an output check failed, after its result line.
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("benchmark binary exited with code %d and no result" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    problems = []
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s, unit mismatch %s" % (missing, extra, units))

    def record(trace):
        path = os.path.join(RESULTS, "result-%s-seed%d-trace%d.json"
                            % (args.workload, args.seed, trace))
        if not os.path.isfile(path):
            return None
        with open(path) as f:
            rec = json.load(f)
        return rec if rec.get("revision") == rev else None

    this, other = record(args.trace), record(1 - args.trace)
    if this and other:
        if this["digest"] != other["digest"]:
            problems.append("traced and untraced outcome digests differ: %s vs %s"
                            % (this["digest"], other["digest"]))
        traced, plain = (this, other) if args.trace else (other, this)
        print("[overhead] traced minus untraced, same seed: " + ", ".join(
            "%s %+.4g %s" % (k, traced["end_to_end"][k]["value"] - v["value"],
                             v["unit"])
            for k, v in plain["end_to_end"].items() if k in traced["end_to_end"]))

    for p in problems:
        print("[check failed] " + p)
    if problems:
        result["correct"] = False
        result["failed"] += len(problems)
        result["attempted"] += len(problems)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
