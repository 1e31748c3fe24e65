"""One workload run in a fresh process: set up, then closed-loop passes.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src`` and
its working directory a fresh temporary directory.  It prints ``ready`` once
the inputs are built, then runs the workload's query batch pass after pass.
Between passes it times set-up probes: copies of itself started with
``--setup-only``, timed from spawn to ``ready``.  Every pass issues the same
queries on the same inputs with fresh module objects, so passes repeat the
same work and their times are comparable.  While a pass runs, a timer
signal times a fixed reference kernel that does not use brim, and each
query's time is scaled to a host of fixed speed by the kernel's time while
the query ran (see REFERENCE_S).

With ``--trace 1`` untraced and traced passes alternate; the traced ones give
the per-layer numbers and the difference of the two is the tracing
overhead.  Results go to ``--out`` as JSON when the run ends, and the spans
of every traced pass to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracing import Tracer, layer_metrics, median_metrics
from workloads import ORACLE, build

MIN_PASSES = 3  # per kind (untraced, traced): a median needs at least three
SETUP_PROBES = 15
# The host switches between a fast and a slow phase (the slow one 1.4-1.8
# times slower) within seconds, also in the middle of a query.  So the
# host's speed is sampled during every query: a timer signal runs the
# reference kernel every SAMPLE_EVERY_S, and a query's time, net of those
# samples, is scaled by REFERENCE_S over the kernel's mean time while it ran.
# REFERENCE_S is the kernel's time in the fast phase of the 2-vCPU host where
# the benchmark was defined, so scaled times are that host's fast-phase times.
REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.05
MIN_SAMPLES = 20  # a query with fewer samples in it also uses the nearest ones


def reference_kernel():
    """Fixed pure-Python work of the kind brim's inner loops do (tuple keys,
    dict updates, small-integer arithmetic) in a few KiB of memory, about a
    millisecond of it.  It never calls brim, so its time moves only with the
    host's speed."""
    acc = {}
    for a in range(8):
        for b in range(30):
            for c in range(12):
                key = (a % 8, b * c % 17, c % 4)
                acc[key] = (acc.get(key, 1) * (a * 31 + b * 7 + c + 1)) % 32003
    return len(acc)


class SpeedSampler:
    """Times the reference kernel, in bursts of MIN_SAMPLES (``burst``) or
    every SAMPLE_EVERY_S from a SIGALRM handler in the main thread, so that
    it interleaves with an in-process query (``start``).

    Work done by a child process is bracketed by bursts instead: a sample
    taken in this process while the child runs may share the child's CPU and
    read the host as slower than it is."""

    def __init__(self):
        self.samples = []  # (start, duration) of each kernel run

    def sample(self, *_):
        # collector off, so the heap brim left behind does not change the
        # kernel's time
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        if enabled:
            gc.enable()

    def burst(self):
        for _ in range(MIN_SAMPLES):
            self.sample()

    def start(self):
        self.burst()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def during(self, t0, t1):
        """Kernel time spent in [t0, t1], and the kernel's mean time over the
        samples taken then or, if fewer than MIN_SAMPLES, over those and the
        MIN_SAMPLES nearest on either side."""
        inside = [d for start, d in self.samples if t0 <= start <= t1]
        basis = inside
        if len(inside) < MIN_SAMPLES:
            before = [d for start, d in self.samples if start < t0][-MIN_SAMPLES:]
            after = [d for start, d in self.samples if start > t1][:MIN_SAMPLES]
            basis = before + inside + after
        return sum(inside), sum(basis) / len(basis)


def check(qid, outcome, error):
    """Status of one answer against the oracle: ok, known_failure, failed."""
    entry = ORACLE["queries"][qid]
    if error is not None:
        known = entry.get("known_failure")
        if known and type(error).__name__ == known["raises"]:
            return "known_failure", None
        return "failed", f"{type(error).__name__}: {error}"
    if outcome != entry["expected"]:
        return "failed", f"got {outcome!r}, expected {entry['expected']!r}"
    return "ok", None


def run_pass(workload, index, traced, root: Path):
    tracer = Tracer() if traced else None
    if workload.cli is not None:
        cwd = root / f"pass-{index}"
        cwd.mkdir()
        workload.cli.start_pass(cwd, traced)
    if tracer:
        tracer.install()
    records = []
    in_process = workload.cli is None
    sampler = SpeedSampler()
    if in_process:
        sampler.start()
    started = time.perf_counter()
    try:
        for query in workload.queries:
            # each query starts from a collected heap, so it neither pays
            # for the previous query's garbage nor peaks on top of it
            gc.collect()
            if not in_process:
                sampler.burst()
            outcome = error = None
            if tracer:
                tracer.query = query.qid
                span = tracer.open("query", "bench")
            t0 = time.perf_counter()
            try:
                outcome = query.run()
            except Exception as exc:  # a wrong answer or a crash is counted, the run goes on
                error = exc
            t1 = time.perf_counter()
            if tracer:
                tracer.close(span)
            status, detail = check(query.qid, outcome, error)
            records.append({"qid": query.qid, "t0": t0, "t1": t1, "status": status, "detail": detail})
        ended = time.perf_counter()
        sampler.burst()
    finally:
        sampler.stop()
        if tracer:
            tracer.uninstall()
    # the samples taken during an in-process query delayed it
    for rec in records:
        t0, t1 = rec.pop("t0"), rec.pop("t1")
        spent, ref = sampler.during(t0, t1)
        rec["s"] = t1 - t0 - spent
        rec["ref_s"] = ref
        rec["scaled_s"] = rec["s"] * REFERENCE_S / ref
    wall = ended - started - sampler.during(started, ended)[0]
    result = {"traced": traced, "wall_s": wall, "queries": records}
    if workload.cli is not None:
        result["cli"] = list(workload.cli.records)
    if tracer:
        spans, counts = tracer.spans, tracer.counts
        if workload.cli is not None:
            spans, counts = _merge_cli_traces(workload.cli.records, spans, counts)
        layers = layer_metrics(spans, counts)
        layers.update(_cli_layers(result.get("cli", [])))
        speed = REFERENCE_S / median(r["ref_s"] for r in records)
        result["layers"] = {k: v * speed if k.endswith("_s") else v for k, v in layers.items()}
        result["spans"] = spans
    if workload.cli is not None:
        shutil.rmtree(cwd)
    return result


def _merge_cli_traces(records, spans, counts):
    """Append each traced CLI child's spans, re-indexing their parents."""
    spans = list(spans)
    counts = counts.copy()
    for idx, rec in enumerate(records):
        doc = json.loads(Path(rec["trace"]).read_text())
        rec["imported"] = doc["imported"]
        offset = len(spans)
        for span in doc["spans"]:
            if span[2] is not None:
                span[2] += offset
            span[3] = f"cli-{idx}"
            spans.append(span)
        counts.update(doc["counts"])
    return spans, counts


def _cli_layers(records):
    """CLI start-up (spawn to brim imported), compute and overhead times."""
    if not records:
        return {"cli.startup_s": 0.0, "cli.compute_s": 0.0, "cli.overhead_s": 0.0}
    wall = sum(r["wall_s"] for r in records)
    compute = sum(r["compute_s"] for r in records)
    startups = [r["imported"] - r["spawned"] for r in records if "imported" in r]
    return {
        "cli.startup_s": median(startups) if startups else 0.0,
        "cli.compute_s": compute,
        "cli.overhead_s": wall - compute,
    }


def probe_setup(args, cwd: Path):
    """Spawn-to-ready time of a fresh process that sets the workload up and
    exits: interpreter start, ``import brim`` and input construction.  It is
    not scaled: process start-up slows less than the reference kernel in the
    host's slow phase, so scaling it made its spread wider, not narrower."""
    cmd = [
        sys.executable, __file__,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--src", args.src,
        "--setup-only",
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode} without reporting ready")
    shutil.rmtree(cwd)
    return elapsed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = build(args.workload, args.seed, Path(args.src))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    root = Path.cwd()
    passes = []
    setups = []
    kinds = [False, True] if args.trace else [False]
    started = time.perf_counter()

    def probe_until(count):
        while len(setups) < count:
            cwd = root / f"probe-{len(setups)}"
            cwd.mkdir()
            setups.append(probe_setup(args, cwd))

    while True:
        # Set-up probes are spread over the run, between passes, so that
        # their median samples the host over the whole run, as the query
        # times do.
        elapsed = time.perf_counter() - started
        probe_until(min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / args.seconds)))
        done = {k: [p for p in passes if p["traced"] is k] for k in kinds}
        if all(len(v) >= MIN_PASSES for v in done.values()):
            cycle = sum(median(p["wall_s"] for p in v) for v in done.values())
            if time.perf_counter() - started + cycle > args.seconds:
                break
        for traced in kinds:
            passes.append(run_pass(workload, len(passes), traced, root))
    probe_until(SETUP_PROBES)

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    traced = [p for p in passes if p["traced"]]
    if args.spans and traced:
        Path(args.spans).write_text(
            json.dumps(
                {
                    "fields": ["name", "layer", "parent", "query", "start", "end", "info"],
                    "passes": [p["spans"] for p in traced],
                }
            )
        )
    for p in traced:
        del p["spans"]
    layers = median_metrics([p["layers"] for p in traced]) if traced else None
    counts_repeat = all(
        {k: v for k, v in p["layers"].items() if not k.endswith("_s")}
        == {k: v for k, v in traced[0]["layers"].items() if not k.endswith("_s")}
        for p in traced
    )
    Path(args.out).write_text(
        json.dumps(
            {
                "passes": passes,
                "layers": layers,
                "counts_repeat": counts_repeat,
                "peak_rss_kib": usage,
                "setups": setups,
                "speed": REFERENCE_S
                / median(q["ref_s"] for p in passes if not p["traced"] for q in p["queries"]),
                "measured_s": time.perf_counter() - started,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
