#!/usr/bin/env python3
"""Steadiness mode: run.py over several seeds, quartiles of every metric.

Usage, from the checkout root:

    python3 perfbench/steady.py --workload deciders --seeds 1-10 [--trace 0]

Runs are sequential, each a fresh ``run.py`` process with
``BENCHMARK.json``'s ``run_seconds``.  For every metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, next to the metric's bound and a
third of it.  The same is printed, ungated, for the unscaled query times
of the report lines (``*_unscaled_s``), which shows what the scaling to a
fixed host speed does to the spread.  A run that is not correct or fails a
query is reported.  Exits 1 when a run fails or an end-to-end spread exceeds
a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    ok = True
    for seed in seeds_from(args.seeds):
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
            ok = False
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) >= 3 and parts[0] == "report" and parts[1].endswith("_unscaled_s"):
                row[parts[1]] = float(parts[2])
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, _, q3 = quantiles(vals, n=4)
        mid = median(vals)
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            steady = spread <= bound / 3
            verdict = f"bound {bound} third {bound / 3:.4f} {'ok' if steady else 'WIDE'}"
            if not steady:
                ok = False
        print(f"{name:40s} n={len(vals)} median={mid:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
