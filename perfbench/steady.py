#!/usr/bin/env python3
"""Steadiness check for the editor-service benchmark.

Runs one workload N times, each with another seed, and prints for every
metric of the run's output its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
against the metric's bound from BENCHMARK.json, plus attempted and failed
counts and the failed share of every run.

    python3 perfbench/steady.py --workload edit_simp_c --runs 10 --seed 1

Run from the repository root. ``--trace 1`` summarises the per-layer
metrics instead (they have no bound). ``--compare FILE`` reads the JSON
summary an earlier invocation wrote with ``--save FILE`` and reports, per
metric, whether this set's median is worse than that one's by more than
the bound, and whether the failed shares agree exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"run with seed {seed} exited {p.returncode}")
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed; run k uses seed + k")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", default=None)
    ap.add_argument("--compare", default=None)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = a.seconds or bench["run_seconds"]
    key = "per_layer" if a.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}

    values = {name: [] for name in bounds}
    shares = []
    for k in range(a.runs):
        seed = a.seed + k
        res, wall = run_once(cmd, a.workload, seed, seconds, a.trace)
        share = res["failed"] / res["attempted"]
        shares.append(share)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} share={share:.6f} wall={wall:.1f}s", flush=True)
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print("   " + " ".join(f"{n}={res['metrics'][n]['value']:.4g}" for n in bounds), flush=True)

    summary = {"workload": a.workload, "shares": shares, "medians": {}}
    print(f"\n{a.workload}: {a.runs} runs of {seconds} s")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    ok = True
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        note = ""
        if bound is not None:
            note = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "TOO WIDE")
            ok = ok and spread <= bound
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {b:>6} {note}")
        summary["medians"][name] = med
    distinct = sorted(set(round(s, 12) for s in shares))
    print(f"failed shares: {distinct}")

    if a.compare:
        with open(a.compare) as f:
            prev = json.load(f)
        better = {m["name"]: m["better"] for m in bench[key]}
        print(f"\nagainst {a.compare}:")
        for name, med in summary["medians"].items():
            old = prev["medians"][name]
            bound = bounds[name]
            worse = (med - old) / old if better[name] == "lower" else (old - med) / old
            verdict = "-" if bound is None else ("ok" if worse <= bound else "REGRESSED")
            ok = ok and verdict != "REGRESSED"
            print(f"{name:34} {old:12.4f} -> {med:12.4f} worse by {worse:+.4f} {verdict}")
        same = sorted(set(round(s, 12) for s in prev["shares"])) == distinct
        print(f"failed shares agree: {same}")
        ok = ok and same
    if a.save:
        with open(a.save, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
