"""Tests of the benchmark's own arithmetic: percentiles, self time, failure
counting and the result line. Run with ``python3 -m pytest perfbench -q``."""
from __future__ import annotations

import json
import os

import pytest

from perfbench import run
from perfbench.measure import MIN_BEYOND, Ops, percentile, repeat_timed, samples_beyond
from perfbench.spans import Span, Tracer, covered


# ------------------------------------------------------------ percentiles
def test_p99_needs_ten_samples_beyond():
    assert samples_beyond(1000, 99) == MIN_BEYOND
    assert samples_beyond(999, 99) == MIN_BEYOND - 1
    assert percentile([float(i) for i in range(999)], 99) is None
    assert percentile([float(i) for i in range(1000)], 99) == 989.0


def test_percentile_is_nearest_rank_of_unsorted_samples():
    samples = [float(x) for x in reversed(range(1, 101))]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 90) == 90.0
    assert percentile(samples, 91) is None  # only 9 samples beyond
    assert percentile([], 50) is None


# -------------------------------------------------------------- self time
@pytest.mark.parametrize(
    "intervals, want",
    [
        ([], 0.0),
        ([(1, 2), (3, 5)], 3.0),  # disjoint
        ([(1, 4), (2, 3)], 3.0),  # nested
        ([(1, 3), (2, 5)], 4.0),  # overlapping
        ([(-1, 2), (9, 12)], 3.0),  # clipped to the parent [0, 10]
    ],
)
def test_covered_counts_the_union_once(intervals, want):
    assert covered(0.0, 10.0, intervals) == pytest.approx(want)


def test_self_time_is_duration_minus_children():
    t = Tracer()
    t.spans = [
        Span(0, "pipeline.fit", None, 0, 0.0, 10.0),
        Span(1, "engine.iv", 0, 0, 1.0, 4.0),
        Span(2, "engine.corr", 0, 0, 5.0, 6.5),
        Span(3, "inner", 1, 0, 2.0, 3.0),  # grandchild: already inside iv
    ]
    fit = t.spans[0]
    assert t.self_time(fit) == pytest.approx(5.5)
    assert t.self_time(t.spans[1]) == pytest.approx(2.0)
    kids = t.children(fit)
    assert sum(k.duration for k in kids) + t.self_time(fit) == pytest.approx(fit.duration)


class _FakeModel:
    trees_ = [object(), object()]


class _FakeEngine:
    def fit_gbdt(self, cols, **params):
        return _FakeModel()

    def gain_ratios(self, cols, combos):
        return [0.0] * len(combos)

    def iv(self, cols, beta=10):
        return {c: 0.0 for c in cols}

    def corr(self, cols):
        return None

    def add_generated(self, specs):
        return None


def test_instrumented_engine_spans_and_restore():
    t = Tracer()
    eng = _FakeEngine()
    orig = _FakeEngine.__dict__["iv"]
    with t.instrument_engines(_FakeEngine):
        with t.span("pipeline.fit") as fit:
            for _ in range(2):  # two SAFE iterations
                eng.fit_gbdt(["a", "b"])
                eng.gain_ratios(["a", "b"], [1, 2, 3])
                eng.add_generated(["s"])
                eng.iv(["a", "b", "c"])
                eng.corr(["a"])
                eng.fit_gbdt(["a"])
    assert _FakeEngine.__dict__["iv"] is orig
    kids = t.children(fit)
    assert [k.name for k in kids][:6] == [
        "engine.fit_gbdt_mining", "engine.gain_ratios", "engine.add_generated",
        "engine.iv", "engine.corr", "engine.fit_gbdt_ranking",
    ]
    assert [k.name for k in kids][6] == "engine.fit_gbdt_mining"
    assert all(k.trace_id == fit.id and k.parent == fit.id for k in kids)
    assert kids[0].counts == {"cols_in": 2, "trees": 2}
    assert kids[1].counts == {"combos_in": 3}
    assert kids[3].counts == {"cols_in": 3}
    assert t.self_time(fit) >= 0.0


# ------------------------------------------------------- failure counting
def test_ops_count_failures_and_keep_going():
    ops = Ops()
    with ops.op("fit"):
        pass
    with ops.op("apply"):
        raise ValueError("boom")
    assert ops.check("finite", True)
    assert not ops.check("roundtrip", False, "differs")
    assert (ops.attempted, ops.failed) == (4, 2)
    assert ops.failed_ratio == 0.5
    assert not ops.correct
    assert "boom" in ops.errors[0] and "roundtrip" in ops.errors[1]


def test_repeat_timed_honours_minimum_count():
    calls = []
    durations = repeat_timed(lambda: calls.append(1), min_count=3, budget_s=0.0)
    assert len(durations) == len(calls) == 3


# ------------------------------------------------------------ result line
class _Run:
    def __init__(self, trace):
        self.trace = trace
        self.ops = Ops()
        self.end_to_end = {"setup_s": (1.5, "s", 3)}
        self.per_layer = {"spark.jobs": (7.0, "count", 1)}


def test_result_line_marks_missing_end_to_end_metric_incorrect():
    line = run.result_line(_Run(trace=False), run.END_TO_END)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    assert line["metrics"]["fit_s"]["value"] is None
    assert line["correct"] is False


def test_result_line_reads_unused_layers_as_zero():
    line = run.result_line(_Run(trace=True), run.PER_LAYER)
    assert line["correct"] is True
    assert line["metrics"]["spark.jobs"]["value"] == 7.0
    assert line["metrics"]["plan.apply_spark.s"]["value"] == 0.0
    assert list(line["metrics"]) == [n for n, _ in run.PER_LAYER]


def test_benchmark_json_lists_the_metrics_the_command_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
