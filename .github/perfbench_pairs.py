#!/usr/bin/env python3
"""Compare the repository benchmark on a parent commit and on this checkout.

    python3 .github/perfbench_pairs.py --parent REV --out FILE

Exports REV with `git archive` into a temporary directory outside the
checkout, then runs 10 pairs, one seed per pair (seeds 1-10).  Each pair runs
every workload of BENCHMARK.json once on each side, the side that goes first
alternating from pair to pair, with BENCHMARK.json's command:

    <command> --workload W --seed S --seconds <run_seconds> --trace 0

It prints, per workload and end-to-end metric, both sides' median and
quartiles, the pairs the change won and a verdict, and writes the same
numbers to FILE as {"perfbench": {...}}, the shape of the perfbench block of
BENCH_*.json.  The verdict is the first of these that holds:

    worse       the change median is worse than the parent median by more
                than the metric's `bound`
    gain        the change wins at least 9 in 10 pairs (ties count for
                neither side) and the medians differ, in its favour, by
                more than the parent's q3 - q1
    unresolved  the parent's (q3 - q1) / median exceeds the bound, and not
                every change run beats every parent run: the spread is too
                wide for the bound to tell "same" from "worse"
    same        otherwise

Exit status 1 when a run exits non-zero or reports failed ops, or when a
metric is `worse`; 0 otherwise, whatever the other verdicts.  When the
benchmark's `paths` or BENCHMARK.json itself differ between REV and the
checkout, the benchmark itself changed: the script says so, runs nothing
and exits 0, leaving the verdict to the benchmark's self-test.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def benchmark_changed(spec, parent):
    """True when the benchmark's paths or BENCHMARK.json differ between the
    parent commit and the checkout (including uncommitted edits)."""
    files = [*spec["paths"], "BENCHMARK.json"]
    r = subprocess.run(["git", "diff", "--quiet", parent, "--", *files], cwd=ROOT)
    return r.returncode != 0


def export(parent, into):
    archive = subprocess.run(["git", "archive", "--format=tar", parent], cwd=ROOT,
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def run(spec, checkout, workload, seed):
    """One perfbench run: (metric name -> value, or None; problem or None)."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    try:
        result = json.loads(r.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if r.returncode != 0 or result is None:
        tail = (r.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {r.returncode}: {tail}"
    if result["failed"] > 0:
        return None, f"{result['failed']} of {result['attempted']} ops failed"
    return {name: m["value"] for name, m in result["metrics"].items()}, None


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def cell(s):
    def num(x):
        return f"{x:.0f}" if abs(x) >= 1000 else f"{x:.4g}"
    return f"{num(s['median'])} [{num(s['q1'])}, {num(s['q3'])}]"


def better(metric, a, b):
    """a is better than b."""
    return a > b if metric["better"] == "higher" else a < b


def worse_beyond_bound(metric, change, parent):
    if metric["better"] == "higher":
        return change < parent * (1 - metric["bound"])
    return change > parent * (1 + metric["bound"])


def verdict(metric, parent_runs, change_runs, par, chg, wins):
    """The review label of one metric; see the module docstring."""
    if worse_beyond_bound(metric, chg["median"], par["median"]):
        return "worse"
    iqr = par["q3"] - par["q1"]
    if (wins >= 0.9 * len(parent_runs)
            and better(metric, chg["median"], par["median"])
            and abs(chg["median"] - par["median"]) > iqr):
        return "gain"
    if (iqr > metric["bound"] * abs(par["median"])
            and not all(better(metric, c, p) for c in change_runs for p in parent_runs)):
        return "unresolved"
    return "same"


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--out", required=True, help="where to write the JSON record")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    parent = git("rev-parse", "--short", args.parent + "^{commit}")
    change = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change += "+dirty"
    record = {
        "command": " ".join(spec["command"]) +
                   f" --workload W --seed S --seconds {spec['run_seconds']} --trace 0",
        "host": f"{platform.machine()} {platform.system()}, {os.cpu_count()} CPUs",
        "parent": parent,
        "change": change,
        "pairs": "alternating parent/change order, one seed per pair",
    }

    if benchmark_changed(spec, parent):
        print(f"{', '.join(spec['paths'])} or BENCHMARK.json differ between {parent} and {change}: "
              "the benchmark itself changed, so the pairs are not comparable. "
              "perfbench-self-test judges this change.")
        record["benchmark_changed"] = True
        with open(args.out, "w") as f:
            json.dump({"perfbench": record}, f, indent=1)
        return 0

    failures = []
    samples = {w: {m["name"]: {"parent": [], "change": []} for m in metrics}
               for w in workloads}
    tmp = tempfile.mkdtemp(prefix="perfbench-parent-")
    try:
        export(parent, tmp)
        sides = {"parent": tmp, "change": ROOT}
        for seed in range(1, PAIRS + 1):
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for w in workloads:
                got = {}
                for side in order:
                    values, problem = run(spec, sides[side], w, seed)
                    if problem:
                        failures.append(f"{w} seed {seed} {side}: {problem}")
                    got[side] = values
                if got["parent"] and got["change"]:
                    for m in metrics:
                        for side, values in got.items():
                            samples[w][m["name"]][side].append(values[m["name"]])
            print(f"pair {seed}/{PAIRS} done ({' then '.join(order)})", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record["workloads"] = {}
    header = (f"{'workload':8} {'metric':12} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'delta':>8} {'wins':>5} {'bound':>6} "
              f"{'verdict':>10}")
    print("\n" + header + "\n" + "-" * len(header))
    for w in workloads:
        block = {"seeds": f"1-{PAIRS}", "metrics": {}}
        for m in metrics:
            s = samples[w][m["name"]]
            if len(s["parent"]) < 2:
                continue
            par, chg = summary(s["parent"]), summary(s["change"])
            wins = sum(better(m, c, q) for q, c in zip(s["parent"], s["change"]))
            label = verdict(m, s["parent"], s["change"], par, chg, wins)
            block["metrics"][m["name"]] = {"parent": par, "change": chg,
                                           "change_wins": wins, "verdict": label}
            delta = chg["median"] / par["median"] - 1 if par["median"] else 0.0
            if label == "worse":
                failures.append(
                    f"{w} {m['name']}: change median {chg['median']:.6g} {m['unit']} is "
                    f"worse than parent median {par['median']:.6g} by more than the "
                    f"bound {m['bound']:.0%} ({delta:+.1%})")
            print(f"{w:8} {m['name']:12} {cell(par):>30} {cell(chg):>30} "
                  f"{delta:>+8.1%} {wins:>2}/{len(s['parent']):<2} {m['bound']:>6.0%} "
                  f"{label:>10}")
        record["workloads"][w] = block
    record["failures"] = failures
    with open(args.out, "w") as f:
        json.dump({"perfbench": record}, f, indent=1)

    if failures:
        print(f"\nperfbench pairs: FAILED ({parent} -> {change})")
        for msg in failures:
            print("  " + msg)
        return 1
    print(f"\nperfbench pairs: ok, no end-to-end metric worse than its bound "
          f"({parent} -> {change}, {PAIRS} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
