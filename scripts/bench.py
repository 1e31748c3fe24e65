#!/usr/bin/env python3
"""Run the benchmark for every workload and seed and write BENCH_<PR>.json.

Usage, from the checkout root:

    python3 scripts/bench.py --pr N --seeds 1 2 3 --seconds 20

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`` in the checkout, one at a time, with ``perfbench/`` as it is.
The last line a run prints is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the file keeps it per seed, the median of every
metric over the seeds, the git revision with a flag for uncommitted changes,
and a SHA-256 digest of the ``src/brim`` sources measured.

``--checkout DIR`` measures another checkout (its sources and its own
``perfbench/``), which is how before/after pairs are taken; ``--out`` names
the output file.  A run that fails stops the script with its stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The summary line of one perfbench run."""
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def git(checkout: Path, *args) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def source_digest(checkout: Path) -> str:
    """SHA-256 over the relative paths and bytes of src/brim/*.py."""
    digest = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(src.glob("brim/*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def summarize(runs: dict) -> dict:
    """Per seed summaries and, per metric, the median over the seeds."""
    names = next(iter(runs.values()))["metrics"]
    return {
        "correct": all(r["correct"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "median": {
            name: median(r["metrics"][name]["value"] for r in runs.values()) for name in names
        },
        "seeds": {str(seed): r for seed, r in runs.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the output file name")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--out", type=Path, help="default: BENCH_<PR>.json at the repo root")
    args = ap.parse_args()

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    status = git(checkout, "status", "--porcelain", "--", "src")
    report = {
        "pr": args.pr,
        "revision": git(checkout, "rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "src_sha256": source_digest(checkout),
        "command": f"python3 perfbench/run.py --workload W --seed S "
        f"--seconds {args.seconds:g} --trace 0",
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": {},
    }
    for workload in workloads:
        runs = {}
        for seed in args.seeds:
            runs[seed] = run_once(checkout, workload, seed, args.seconds)
            wall = runs[seed]["metrics"]["wall_s"]["value"]
            print(f"{workload} seed {seed}: wall_s {wall:.3f}", file=sys.stderr)
        report["workloads"][workload] = summarize(runs)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
