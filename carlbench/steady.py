#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the benchmark command from BENCHMARK.json in sets of runs of the same
build, one seed per run, and reports for every end-to-end metric of every
workload each set's median and quartiles. It then checks the two criteria
the benchmark is held to:

  spread  (q3 - q1) / median of each set stays within the metric's bound
          (setup_s excepted);
  drift   each later set's median is not worse than the first set's by
          more than the bound.

The sets alternate run by run (seed 1 of every set, then seed 2, ...).

Run from the repository root:

    python3 carlbench/steady.py                 # 2 sets x 10 seeds, all workloads
    python3 carlbench/steady.py --runs 5 --sets 1 --workloads query-cold-8k

Raw results go to carlbench/out/steady-<time>.json. Exit status 1 when a
run fails or a criterion does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    want = {m["name"] for m in bench["end_to_end"]}
    if set(result["metrics"]) != want:
        sys.exit(f"{workload}: metrics {sorted(result['metrics'])} != BENCHMARK.json {sorted(want)}")
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    if metric["better"] == "lower":
        return (later - first) / first
    return (first - later) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="seeds per set (>= 2)")
    parser.add_argument("--sets", type=int, default=2, help="sets of runs")
    parser.add_argument("--seed-base", type=int, default=1, help="first seed of each set")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    # Sets alternate run by run, so the machine drifting while the check
    # runs does not masquerade as a difference between sets.
    results = {}  # (set, workload) -> list of run results
    for w in workloads:
        for i in range(args.runs):
            seed = args.seed_base + i
            for s in range(args.sets):
                t0 = time.time()
                r = run_once(bench, w, seed, seconds)
                results.setdefault((s, w), []).append(r)
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} ({time.time() - t0:.0f}s)",
                      flush=True)

    ok = all(r["correct"] and r["failed"] == 0 for rs in results.values() for r in rs)
    report = []
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'drift':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                st = summarise(values)
                first = first or st
                drift = worse_by(m, first["median"], st["median"])
                verdict = []
                if name != "setup_s" and st["spread"] > bound:
                    verdict.append("SPREAD>BOUND")
                elif name != "setup_s" and st["spread"] > bound / 3:
                    verdict.append("spread>bound/3")
                if drift > bound:
                    verdict.append("DRIFT>BOUND")
                ok = ok and "SPREAD>BOUND" not in verdict and "DRIFT>BOUND" not in verdict
                print(f"  {name:<12} {s + 1:>3} {st['median']:>12.4f} {st['q1']:>12.4f} "
                      f"{st['q3']:>12.4f} {st['spread']:>7.3f} {bound:>6.2f} {drift:>7.3f}  "
                      f"{' '.join(verdict) or 'ok'}")
                report.append({"workload": w, "metric": name, "set": s + 1, "values": values,
                               **st, "bound": bound, "drift": drift, "verdict": verdict})

    out = os.path.join(ROOT, "carlbench", "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, time.strftime("steady-%Y%m%dT%H%M%S.json"))
    with open(path, "w") as f:
        json.dump({"runs": args.runs, "sets": args.sets, "seconds": seconds,
                   "seed_base": args.seed_base, "rows": report}, f, indent=1)
    print(f"\n{'STEADY' if ok else 'NOT STEADY'}; raw results in {os.path.relpath(path, ROOT)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
