#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

Runs each workload k times, each with another seed, through perfbench/run.py
and prints, per end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), min and max, and the spread:
the distance between the quartiles as a share of the median. A metric whose
spread exceeds its BENCHMARK.json bound is flagged OVER; one whose spread
exceeds a third of its bound is flagged "> bound/3" (not yet steady).

    python3 perfbench/steady.py --runs 10 [--workloads sort_mix,serve_mix]
                                [--first-seed 1] [--save set1.json]
                                [--compare set0.json]

--save writes every run's values; --compare reads such a file and flags
every metric whose median in this set is worse than the saved set's median
by more than its bound. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} operations FAILED")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / med if med else 0.0}


def worse_by(old, new, better):
    """Relative change of new against old in the worse direction."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in spec["workloads"]])
    old = {}
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)

    saved, flagged = {}, 0
    for workload in names:
        runs = [run_once(workload, args.first_seed + i, spec["run_seconds"],
                         args.trace) for i in range(args.runs)]
        saved[workload] = runs
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>8}  flag")
        for m in metrics:
            values = [r[m["name"]] for r in runs]
            s = summarize(values) if len(values) > 1 else None
            flag = ""
            bound = m.get("bound")
            if s and bound is not None:
                if s["spread"] > bound:
                    flag = f"OVER bound {bound}"
                elif s["spread"] > bound / 3:
                    flag = f"> bound/3 ({bound / 3:.3f})"
                if flag:
                    flagged += 1
            if s and bound is not None and workload in old:
                before = statistics.median(r[m["name"]] for r in old[workload])
                worse = worse_by(before, s["median"], m["better"])
                if worse > bound:
                    flag += f" median {100 * worse:.1f}% worse than saved"
                    flagged += 1
            if s:
                print(f"  {m['name']:32} {s['median']:12.6g} {s['q1']:12.6g} "
                      f"{s['q3']:12.6g} {s['min']:12.6g} {s['max']:12.6g} "
                      f"{s['spread']:8.4f}  {flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    print(f"\n{flagged} flagged metric/workload pairs")


if __name__ == "__main__":
    main()
