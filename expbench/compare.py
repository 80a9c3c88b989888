#!/usr/bin/env python3
"""A/B comparison of two sets of expbench results.

Each set is a directory holding one `.out` file per run: that run's
whole standard output (the `meta` line and the final JSON line are
used). Runs are paired in file-name order within each workload, so name
the files in the order they ran (for example `001.out`, `002.out`, ...)
and alternate which side runs first. See README.md for the full
procedure.

    python3 expbench/compare.py A_DIR B_DIR    # A = parent, B = change
    python3 expbench/compare.py A_DIR          # one set: medians and spread

Per workload and metric it prints each side's median and quartiles, the
spread (interquartile distance over the median), the share of pairs B
won, and, for metrics with a bound in BENCHMARK.json, a verdict:

* improved:   B wins at least 9/10 of the pairs and the medians differ
              by more than A's interquartile distance, in B's favour;
* no worse:   B's median is not worse than A's by more than the bound and
              A's spread is within the bound, or every B run beats every
              A run;
* worse:      B's median is worse by more than the bound and A's spread
              is within the bound;
* unresolved: anything else (the spread is wider than the bound).
"""

import json
import os
import statistics
import sys


def load(directory):
    """{(workload, trace): [(file, metrics, correct)]} in file-name order."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not name.endswith(".out") or not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as f:
            lines = [line.strip() for line in f if line.strip()]
        meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")), None)
        if meta is None or not lines:
            print(f"skipping {path}: no meta line", file=sys.stderr)
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"skipping {path}: last line is not a result", file=sys.stderr)
            continue
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        key = (meta["workload"], meta["trace"])
        runs.setdefault(key, []).append((name, metrics, result["correct"]))
    return runs


def bench_spec():
    """{metric: (better, bound or None)} from BENCHMARK.json, if found."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(os.path.dirname(here), "BENCHMARK.json")
    spec = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            bench = json.load(f)
        for m in bench.get("end_to_end", []):
            spec[m["name"]] = (m["better"], m.get("bound"))
        for m in bench.get("per_layer", []):
            spec[m["name"]] = (m["better"], None)
    return spec


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a_vals, b_vals, better, bound):
    pairs = list(zip(a_vals, b_vals))
    wins = sum(1 for a, b in pairs if worse_by(a, b, better) < 0)
    won = wins / len(pairs)
    a_q1, a_med, a_q3 = quartiles(a_vals)
    b_med = statistics.median(b_vals)
    change = worse_by(a_med, b_med, better)
    if bound is None:
        return won, "-"
    if won >= 0.9 and change < 0 and abs(b_med - a_med) > a_q3 - a_q1:
        return won, "improved"
    a_spread = (a_q3 - a_q1) / a_med if a_med else 0.0
    b_beats_all = all(worse_by(a, b, better) < 0 for a in a_vals for b in b_vals)
    if (change <= bound and a_spread <= bound) or b_beats_all:
        return won, "no worse"
    if a_spread <= bound:
        return won, "worse"
    return won, "unresolved"


def fmt(x):
    return f"{x:.6g}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = bench_spec()
    a_runs = load(argv[1])
    b_runs = load(argv[2]) if len(argv) == 3 else None
    status = 0
    for key in sorted(a_runs):
        workload, trace = key
        a = a_runs[key]
        b = b_runs.get(key, []) if b_runs is not None else None
        label = f"{workload} (trace {trace})"
        bad = [n for n, _, ok in a + (b or []) if not ok]
        if bad:
            print(f"{label}: incorrect runs: {', '.join(bad)}")
            status = 1
        if b is not None and len(a) != len(b):
            n = min(len(a), len(b))
            print(f"{label}: {len(a)} A runs vs {len(b)} B runs, pairing the first {n}")
            a, b = a[:n], b[:n]
        if b is not None and not b:
            print(f"{label}: no B runs")
            continue
        print(f"\n{label}: {len(a)} run(s) per side")
        header = f"  {'metric':<32} {'A q1':>10} {'A median':>10} {'A q3':>10} {'A spread':>9}"
        if b is not None:
            header += f" {'B q1':>10} {'B median':>10} {'B q3':>10} {'B won':>6}  verdict"
        print(header)
        for metric in a[0][1]:
            a_vals = [m[metric] for _, m, _ in a]
            q1, med, q3 = quartiles(a_vals)
            row = f"  {metric:<32} {fmt(q1):>10} {fmt(med):>10} {fmt(q3):>10} {spread(a_vals):>8.1%}"
            if b is not None:
                b_vals = [m.get(metric, 0.0) for _, m, _ in b]
                bq1, bmed, bq3 = quartiles(b_vals)
                better, bound = spec.get(metric, ("lower", None))
                won, v = verdict(a_vals, b_vals, better, bound)
                row += f" {fmt(bq1):>10} {fmt(bmed):>10} {fmt(bq3):>10} {won:>6.0%}  {v}"
            print(row)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
