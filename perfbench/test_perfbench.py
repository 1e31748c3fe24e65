"""Tests of the benchmark's own arithmetic and determinism.

Run from the checkout root: ``python3 -m pytest perfbench -q``.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import brim.rees  # noqa: E402
from tracing import END, PARENT, START, Tracer, layer_metrics, self_times  # noqa: E402
from worker import MIN_SAMPLES, SpeedSampler, check, run_pass  # noqa: E402
from workloads import Workload, build  # noqa: E402


def span(name, parent, start, end):
    return [name, "layer", parent, "q", start, end, None]


def test_self_time_nested_overlapping_and_clipped_children():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),  # nested in root
        span("a.x", 1, 1.5, 2.0),  # nested in a
        span("b", 0, 3.0, 6.0),  # overlaps a: [3, 4] counts once for root
        span("c", 0, 9.0, 12.0),  # runs past root's end: clipped to [9, 10]
        span("d", 0, 11.0, 13.0),  # wholly outside root: covers nothing
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - (5.0 + 1.0))  # [1, 6] and [9, 10]
    assert got[1] == pytest.approx(3.0 - 0.5)
    assert got[2] == pytest.approx(0.5)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(3.0)
    assert got[5] == pytest.approx(2.0)


def test_self_times_sum_to_root_duration_without_overlap():
    tracer = Tracer()
    outer = tracer.open("outer", "l1")
    inner = tracer.open("inner", "l2")
    tracer.close(inner)
    tracer.close(outer)
    selfs = self_times(tracer.spans)
    assert tracer.spans[1][PARENT] == 0
    assert sum(selfs) == pytest.approx(tracer.spans[0][END] - tracer.spans[0][START])


def test_layer_metrics_from_synthetic_spans():
    spans = [
        span("query", None, 0.0, 5.0),
        span("linalg.paired_span", 0, 1.0, 2.0),
        span("linalg.paired_span", 0, 2.0, 2.5),
    ]
    spans[1][6] = {"new": True}
    spans[2][6] = {"new": False}
    metrics = layer_metrics(spans, {"poly.mul": 7})
    assert metrics["linalg.paired_span.adds"] == 2
    assert metrics["linalg.paired_span.self_s"] == pytest.approx(1.5)
    assert metrics["linalg.paired_span.new_frac"] == pytest.approx(0.5)
    assert metrics["poly.mul.calls"] == 7
    assert metrics["poly.order_key.calls"] == 0


def traced_run(seed, tmp_path):
    """One traced pass of the two cheap parameter-module ebr queries, on a
    workload built afresh from the seed, as a new run would build it."""
    full = build("graded-ebr", seed, HERE.parent / "src")
    return run_pass(Workload("graded-ebr", full.queries[:2]), 0, True, tmp_path)


def test_traced_runs_with_one_seed_repeat_counts_and_restore_brim(tmp_path):
    original = brim.rees.buchberger
    first = traced_run(7, tmp_path)
    second = traced_run(7, tmp_path)
    assert brim.rees.buchberger is original
    assert all(q["status"] == "ok" for q in first["queries"] + second["queries"])
    counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second["layers"].items() if not k.endswith("_s")}
    assert counts["groebner.buchberger.calls"] > 0 and counts["poly.order_key.calls"] > 0
    assert all(not k.startswith("linalg") or v == 0 for k, v in counts.items())


def test_check_counts_wrong_values_and_unexpected_errors():
    assert check("ebr-param-R22-QQ", 3, None) == ("ok", None)
    assert check("ebr-param-R22-QQ", 4, None)[0] == "failed"
    assert check("ebr-param-R22-QQ", None, ValueError("boom"))[0] == "failed"
    from brim.errors import SuperficialSamplingFailed

    known = check("risler-U-m-R21-QQ", None, SuperficialSamplingFailed("x"))
    assert known == ("known_failure", None)


def test_speed_sampler_uses_samples_inside_a_query_or_the_nearest_ones():
    m = MIN_SAMPLES
    sampler = SpeedSampler()
    sampler.samples = [(0.1 * i, 0.001 * (1 + i % 2)) for i in range(4 * m)]

    def mean_of(window):
        durations = [d for _, d in window]
        return sum(durations) / len(durations)

    # m samples inside: they alone give the speed
    spent, ref = sampler.during(0.1 * m - 0.05, 0.1 * (2 * m - 1) + 0.05)
    assert spent == pytest.approx(sum(d for _, d in sampler.samples[m : 2 * m]))
    assert ref == pytest.approx(mean_of(sampler.samples[m : 2 * m]))
    # one sample inside: the m nearest on either side count too
    k = 2 * m
    spent, ref = sampler.during(0.1 * k - 0.05, 0.1 * k + 0.05)
    assert spent == pytest.approx(sampler.samples[k][1])
    assert ref == pytest.approx(mean_of(sampler.samples[k - m : k + 1 + m]))
    # nothing inside or after: the last m before
    spent, ref = sampler.during(0.1 * 4 * m, 0.1 * 5 * m)
    assert spent == 0
    assert ref == pytest.approx(mean_of(sampler.samples[-m:]))
