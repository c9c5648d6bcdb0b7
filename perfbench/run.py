#!/usr/bin/env python3
"""Run one workload of the repository benchmark, or its self-test.

    python3 perfbench/run.py --workload sweep|serve|admit --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/bench.exe from the checkout this file sits in (dune, build
tree in .bench_build), runs it from the checkout root and passes its output
through: the last stdout line is the result object.  See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
REFERENCE = os.path.join("perfbench", "reference", "sweep_period_err.txt")
WORKLOADS = ("sweep", "serve", "admit")
RUN_TIMEOUT_S = 170

# Per-layer counts that must repeat bit for bit on the same seed, by
# workload.  On serve the collection counts are left out: the server's
# other domains take part in every collection, and when they allocate
# depends on their scheduling.  Minor words are this domain's own.
GC_EXACT = ("gc.minor_words_per_op", "gc.minor_collections", "gc.major_collections")
EXACT = {
    "sweep": ("desim.firings", "accuracy.period_err_pct") + GC_EXACT,
    "serve": ("lru.hit_ratio", "lru.misses", "gc.minor_words_per_op"),
    "admit": ("admission.incremental_ops", "admission.drift_refolds",
              "admission.group_rebuilds", "admission.group_drift_refolds",
              "admission.full_rebuilds") + GC_EXACT,
}


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return False
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + "perfbench: build failed\n")
        return False
    return True


def declared(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    """Run bench.exe once: (exit code, stdout lines, raw result or None)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", REFERENCE]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {workload} ran over {RUN_TIMEOUT_S} s\n")
        return 124, [], None
    lines = r.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return r.returncode, lines, result


def with_units(result, trace):
    """The result object with each metric's unit from BENCHMARK.json, or
    a list of what is wrong with bench.exe's raw result.  A traced run
    reports only its workload's layers; the others read 0."""
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return ["the last line is not a result object"]
    units = declared(trace)
    raw = result["metrics"]
    found = [f"{name} is not declared in BENCHMARK.json" for name in raw if name not in units]
    found += [f"{name} has no numeric value" for name, v in raw.items()
              if not isinstance(v, (int, float))]
    if not trace:
        found += [f"{name} is missing" for name in units if name not in raw]
    if found:
        return found
    return dict(result, metrics={name: {"value": raw.get(name, 0), "unit": unit}
                                 for name, unit in units.items()})


def problems(result, trace):
    """What is wrong with a raw result, as a list of messages."""
    shaped = with_units(result, trace)
    if isinstance(shaped, list):
        return shaped
    if not result["correct"] or result["failed"] != 0:
        return [f"{result['failed']} of {result['attempted']} ops failed their checks"]
    return []


def self_test(seed=7, held_out=8, seconds=2):
    """Each workload twice on one seed (exact counts must repeat) and once
    more, traced and untraced, on a held-out seed (checks pass, every
    named metric present)."""
    failures = []
    for wl in WORKLOADS:
        before = len(failures)
        twins = []
        for _ in range(2):
            code, _, result = run_once(wl, seed, seconds, 1)
            found = problems(result, 1) if result else ["no result"]
            failures += [f"{wl} seed {seed}: {p}" for p in found]
            twins.append(result["metrics"] if result else {})
        for name in EXACT[wl]:
            a, b = (t.get(name) for t in twins)
            if a is None or a != b:
                failures.append(f"{wl}: {name} did not repeat ({a} vs {b})")
        for trace in (0, 1):
            code, _, result = run_once(wl, held_out, seconds, trace)
            found = problems(result, trace) if result else ["no result"]
            failures += [f"{wl} held-out seed {held_out} trace {trace}: {p}" for p in found]
        print(f"self-test {wl}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    if not build():
        return 2
    if args.self_test:
        return self_test()
    code, lines, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    shaped = with_units(result, args.trace)
    if isinstance(shaped, list):
        sys.stderr.write("\n".join(lines + shaped) + "\n")
        return code or 1
    print("\n".join(lines[:-1] + [json.dumps(shaped)]), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
