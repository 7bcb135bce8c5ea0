#!/usr/bin/env python3
"""Steadiness mode: run one workload of the benchmark k times, each with
another seed, and report per metric the median, the quartiles and their
spread (third minus first quartile, as a share of the median), using
`statistics.quantiles(values, n=4)`. An end-to-end metric whose spread
exceeds its bound in BENCHMARK.json is flagged; so is one whose spread
exceeds a third of its bound (the margin the benchmark is tuned to), as
"tight". With --compare FILE, the medians are also set against a
previous set saved with --save, and a metric whose median got worse by
more than its bound is flagged.

    python3 perfbench/steady.py --workload join_strangers --runs 10 \
        --first-seed 1 [--seconds 10] [--trace] [--save set1.json] \
        [--compare set0.json]

Run it from the root of the repository. It prints one line per run as it
goes, then the table. Exit status 1 means a flag was raised or a run
failed its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: exit status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--save")
    ap.add_argument("--compare")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    values, shares, ok = {}, set(), True
    for seed in range(a.first_seed, a.first_seed + a.runs):
        result = run_once(spec["command"], a.workload, seed, seconds, a.trace)
        ok &= result["correct"]
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if k in bounds), flush=True)
    if len(shares) != 1:
        print(f"FLAG failed share differs between runs: {sorted(shares)}")
        ok = False

    summary = {}
    print(f"\n{'metric':<52} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, ok = "FLAG spread > bound", False
            elif spread > bound / 3:
                flag = "tight: spread > bound/3"
        print(f"{name:<52} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.2%} "
              f"{'' if bound is None else format(bound, '.2f'):>6} {flag}")

    if a.compare:
        with open(a.compare) as f:
            before = json.load(f)
        print("\nagainst", a.compare)
        for name, bound in bounds.items():
            if name not in before or name not in summary:
                continue
            old, new = before[name]["median"], summary[name]["median"]
            change = (new - old) / old if old else 0.0
            worse = change > bound if better[name] == "lower" else -change > bound
            ok &= not worse
            print(f"{name:<52} {old:>12.6g} -> {new:>12.6g} {change:>+8.2%} "
                  f"{'FLAG worse than bound' if worse else ''}")
    if a.save:
        with open(a.save, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
