#!/usr/bin/env python3
"""brim benchmark: one workload run, every metric printed and checked.

Usage, from the checkout root:

    python3 perfbench/run.py --workload graded-ebr --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and ../BENCHMARK.json): graded-ebr,
nonhomog-mixed, deciders, cli-cache.  Each run starts one fresh worker
process in a fresh directory under ``.perfbench_run/`` with
``BRIM_CACHE=off`` and an absolute ``src`` on ``PYTHONPATH``.  The worker
runs the workload's query batch in closed-loop passes for ``--seconds``, and
between passes times set-up probes (fresh processes that only set up);
every answer is checked against ``oracle.json``.  Query times are reported
at a fixed host speed (see ``summarize``), with the unscaled ones beside
them in the report lines; set-up time is reported as measured.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from traced passes (with the tracing overhead); the spans of a traced
run are written to ``.perfbench_out/``.  Lines before the last one are a
readable report of every metric, per-query medians and the host's noise
record (steal ticks, load average); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def read_steal():
    """Steal ticks summed over CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def read_loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except (OSError, ValueError):
        return None


class Runner:
    def __init__(self, args, work: Path, src: Path):
        self.args = args
        self.work = work
        self.src = src
        self.env = dict(os.environ, PYTHONPATH=str(src), BRIM_CACHE="off", PYTHONHASHSEED="0")
        self.started = time.perf_counter()

    def worker(self, tag, *extra):
        """Start a worker, wait for its ready line; returns (proc, cwd)."""
        cwd = self.work / tag
        cwd.mkdir()
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--trace", str(self.args.trace),
            "--src", str(self.src),
            *extra,
        ]
        stderr = open(cwd / "stderr.txt", "w", encoding="utf-8")
        proc = subprocess.Popen(
            cmd,
            cwd=cwd,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
            start_new_session=True,  # so a kill reaches the CLI children too
        )
        stderr.close()
        line = proc.stdout.readline()
        if line.strip() != "ready":
            self.finish(proc, cwd)
            raise BenchError(f"{tag} exited without reporting ready")
        return proc, cwd

    def finish(self, proc, cwd):
        left = DEADLINE_S - (time.perf_counter() - self.started)
        try:
            proc.wait(timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError("worker did not finish before the deadline")
        finally:
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(
                f"worker exited {proc.returncode}:\n{(cwd / 'stderr.txt').read_text()[-4000:]}"
            )

    def run(self):
        out = self.work / "result.json"
        extra = ["--out", str(out)]
        if self.args.trace:
            spans_dir = ROOT / ".perfbench_out"
            spans_dir.mkdir(exist_ok=True)
            extra += ["--spans", str(spans_dir / f"{self.args.workload}-seed{self.args.seed}.spans.json")]
        steal0, load = read_steal(), read_loadavg()
        proc, cwd = self.worker("worker", *extra)
        self.finish(proc, cwd)
        steal1 = read_steal()
        result = json.loads(out.read_text())
        result["steal_ticks"] = None if steal0 is None else steal1 - steal0
        result["loadavg"] = load
        return result


def query_times(passes, key):
    """Each query's times (raw "s" or "scaled_s") over the passes."""
    out = {}
    for p in passes:
        for q in p["queries"]:
            out.setdefault(q["qid"], []).append(q[key])
    return out


def unit_of(name, value):
    """Unit of a report-only metric, from its name."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return ""
    for suffix, unit in (("_s", "s"), ("_frac", "fraction"), ("host_speed", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def summarize(result, spec, trace):
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    queries = [q for p in passes for q in p["queries"]]
    failed = [q for q in queries if q["status"] == "failed"]
    known = [q for q in queries if q["status"] == "known_failure"]
    # The shared host switches between a fast and a slow phase (the slow
    # one 1.4-1.8 times slower), for seconds to minutes.  So each query's
    # time is scaled to a host of fixed speed by the reference kernel timed
    # while it ran (worker.SpeedSampler), and a run reports medians over its
    # passes.  Unscaled times are in the report lines.  Set-up time is the
    # median of probes spread over the run, as measured (see
    # worker.probe_setup).
    scaled = query_times(plain, "scaled_s")
    per_query = {qid: median(times) for qid, times in scaled.items()}
    raw = {qid: median(times) for qid, times in query_times(plain, "s").items()}
    wall = sum(per_query.values())
    setup = median(result["setups"])
    end_to_end = {
        "wall_s": wall,
        "slowest_query_s": max(per_query.values()),
        "setup_s": setup,
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }
    extra = {
        "host_speed": result["speed"],
        "wall_unscaled_s": sum(raw.values()),
        "slowest_query_unscaled_s": max(raw.values()),
        "setup_probes": len(result["setups"]),
        "median_pass_unscaled_s": median(p["wall_s"] for p in plain),
        "failed_frac": (len(failed) + len(known)) / len(queries),
        "failed_queries": len(failed),
        "known_failures": len(known),
        "attempted": len(queries),
        "passes": len(plain),
    }
    roles = {}
    for p in plain:
        for rec in p.get("cli", []):
            roles.setdefault(rec["role"], []).append(rec["wall_s"])
    if roles:
        extra["cli_cold_s"] = median(roles["cold"])
        extra["cli_warm_s"] = median(roles["warm"])
    layers = result["layers"]
    if trace:
        traced = query_times([p for p in passes if p["traced"]], "scaled_s")
        traced_wall = sum(median(times) for times in traced.values())
        layers["trace.overhead_s"] = traced_wall - wall
        extra["traced_wall_s"] = traced_wall
        extra["traced_passes"] = len(passes) - len(plain)
        extra["counts_repeat"] = result["counts_repeat"]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def line(kind, name, value):
        unit = units.get(name) or unit_of(name, value)
        return f"{kind:10s} {name:42s} {value} {unit}".rstrip()

    lines = []
    for name, value in {**end_to_end, **extra}.items():
        lines.append(line("end_to_end" if name in end_to_end else "report", name, value))
    for qid, value in per_query.items():
        lines.append(f"{'query':10s} {qid:42s} {value:.6f} s  (unscaled {raw[qid]:.6f} s)")
    for q in failed:
        lines.append(f"FAILED     {q['qid']}: {q['detail']}")
    if layers:
        for name, value in layers.items():
            lines.append(line("layer", name, value))
    lines.append(f"{'noise':10s} {'steal_ticks':42s} {result['steal_ticks']}")
    lines.append(f"{'noise':10s} {'loadavg':42s} {result['loadavg']}")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {
        "correct": not failed,
        "attempted": len(queries),
        "failed": len(failed),
        "metrics": metrics,
    }
    return lines, summary


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "brim" / "__init__.py").is_file():
        print(f"error: no brim sources under {src}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = Runner(args, work, src).run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    lines, summary = summarize(result, spec, args.trace)
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
