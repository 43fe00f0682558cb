"""Self-tests of the benchmark's own arithmetic (no timing, no sleeps).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` - this
directory is outside tier-1's ``testpaths`` on purpose.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import checks
import loadgen
import stats
import trace

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


class FakeClock:
    """Scripted clock: every reading advances by the next step."""

    def __init__(self, steps) -> None:
        self.now = 0.0
        self._steps = iter(steps)

    def __call__(self) -> float:
        self.now += next(self._steps)
        return self.now


# -- arithmetic -----------------------------------------------------------
def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 95) == pytest.approx(4.8)
    assert stats.percentile(values, 100) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_reported_value_is_the_median_over_reps():
    reps = [
        stats.summarize_rep(wall, [0.010] * 100, 0, 1.0, 100)
        for wall in (1.0, 2.0, 4.0, 100.0, 2.0)  # one disturbed rep
    ]
    out = stats.aggregate(reps)
    assert out["attempted"] == 500 and out["failed"] == 0
    ops = out["metrics"]["ops_per_s"]
    assert ops["value"] == 50.0  # median of 100, 50, 25, 1, 50
    assert ops["reps"] == 5 and ops["samples"] == 500
    assert ops["spread"] == pytest.approx((75.0 - 13.0) / 50.0)
    assert out["metrics"]["latency_p50_ms"]["value"] == pytest.approx(10.0)
    assert out["metrics"]["energy_j_per_op"]["spread"] == 0.0


def test_worse_by_honours_direction():
    higher = {"better": "higher"}
    lower = {"better": "lower"}
    assert stats.worse_by(higher, 100.0, 90.0) == pytest.approx(0.10)
    assert stats.worse_by(lower, 100.0, 90.0) == pytest.approx(-0.10)


# -- inputs -----------------------------------------------------------------
@pytest.mark.parametrize(
    "workload", ["serve_cold", "serve_hot", "wire_closed"]
)
def test_job_ops_are_a_pure_function_of_workload_seed_rep(workload):
    assert loadgen.job_ops(workload, 7, 2) == loadgen.job_ops(workload, 7, 2)
    assert loadgen.job_ops(workload, 7, 2) != loadgen.job_ops(workload, 8, 2)


def test_cold_args_never_repeat_across_reps_and_hot_args_do():
    def keys(workload, rep):
        return {
            (op.kernel, op.args["seed"])
            for op in loadgen.job_ops(workload, 2015, rep)
        }

    cold = [keys("serve_cold", rep) for rep in (-1, 0, 1, 2)]
    assert sum(map(len, cold)) == len(set().union(*cold))
    hot = keys("serve_hot", 0)
    assert len(hot) == loadgen.HOT_POOL * len(loadgen.KERNELS)


def test_paper_grid_is_42_cells():
    ops = loadgen.cell_ops(2015, 0)
    assert len(ops) == loadgen.OPS_PER_REP["paper_cells"] == 42
    assert sum(op.degree is None for op in ops) == 6


# -- a wrong answer must show ------------------------------------------------
GOOD = {
    "status": "executed", "code": 200, "ratio_served": 0.8,
    "quality": 0.01, "energy_j": 0.002, "tasks_total": 30,
    "accurate": 24, "approximate": 6, "dropped": 0,
}


@pytest.mark.parametrize(
    "forged",
    [
        {"code": 500},
        {"code": 429, "status": "rejected-queue"},
        {"accurate": 23},  # counts no longer add up
        {"energy_j": 0.0},  # executed for free
        {"status": "cached", "energy_j": 0.002},  # cache hit billed
        {"ratio_served": 0.6},  # silently degraded
        {"ratio_served": 0.2, "status": "cached-degraded", "energy_j": 0.0},
        {"quality": None},
        {"quality": float("nan")},
    ],
)
def test_forged_report_raises_failed_frac(forged):
    assert checks.check_job(GOOD, 0.8) is None
    reports = [GOOD] * 9 + [{**GOOD, **forged}]
    failed = sum(checks.check_job(r, 0.8) is not None for r in reports)
    rep = stats.summarize_rep(1.0, [0.01] * 10, failed, 0.02, 10)
    assert stats.aggregate([rep])["failed_frac"] == pytest.approx(0.1)


def test_group_and_cell_rules():
    assert checks.check_group("gtb:buffer_size=32", 500, 500, 0) is None
    assert checks.check_group("gtb:buffer_size=32", 530, 470, 0)
    assert checks.check_group("lqh", 530, 470, 0) is None
    assert checks.check_group("lqh", 500, 499, 0)  # a task went missing
    assert checks.check_group("accurate", 1000, 0, 0) is None

    row = {
        "accurate": 10, "approximate": 0, "dropped": 0, "tasks_total": 10,
        "energy_j": 1.0, "quality_value": 0.0,
    }
    assert checks.check_cell(row, "sobel", None) is None
    assert checks.check_cell({**row, "quality_value": 1e-3}, "sobel", None)
    near = {**row, "quality_value": 5e-5}
    assert checks.check_cell(near, "jacobi", None) is None
    sweep = [
        {"energy_j": 3.0, "quality_value": 0.1},
        {"energy_j": 2.0, "quality_value": 0.2},
        {"energy_j": 2.5, "quality_value": 0.3},  # energy rose
    ]
    verdicts = checks.check_monotone(sweep)
    assert [v is None for v in verdicts] == [True, True, False]


# -- tracer -----------------------------------------------------------------
class Layer:
    def outer(self, clock):
        clock()
        self.inner(clock)
        self.inner(clock)
        return "done"

    def inner(self, clock):
        clock()


def test_span_self_time_is_span_minus_children():
    # Every clock reading advances 1 s: the tracer reads it on entry and
    # exit of each call, the bodies read it once each.
    clock = FakeClock([1.0] * 20)
    tracer = trace.Tracer(clock=clock)
    tracer.wrap(Layer, "outer", "outer", lambda a, k, result: result)
    tracer.wrap(Layer, "inner", "inner")
    with tracer:
        Layer().outer(clock)
    outer = next(s for s in tracer.spans if s.name == "outer")
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert outer.info == "done"
    assert [s.parent for s in inners] == [outer, outer]
    assert [s.duration for s in inners] == [2.0, 2.0]
    assert outer.duration == 8.0
    selfs = trace.self_times(tracer.spans)
    assert selfs[outer] == 4.0
    assert selfs[outer] + sum(s.duration for s in inners) == outer.duration


def test_overlapping_children_are_covered_once():
    parent = trace.Span("round", 0.0, None)
    parent.end = 10.0
    a = trace.Span("shard", 1.0, parent)
    a.end = 6.0
    b = trace.Span("shard", 4.0, parent)
    b.end = 9.0
    assert trace.self_times([a, b, parent])[parent] == 2.0


def test_tracer_restores_every_wrapped_attribute():
    class Base:
        def inherited(self):
            return 1

    class Child(Base):
        def own(self):
            return 2

    before = (dict(vars(Base)), dict(vars(Child)))
    tracer = trace.Tracer(clock=FakeClock([1.0] * 100))
    tracer.wrap(Child, "own", "own")
    tracer.wrap(Child, "inherited", "inherited")
    with pytest.raises(RuntimeError):
        with tracer:
            assert Child().own() == 2 and Child().inherited() == 1
            assert "inherited" in vars(Child)
            raise RuntimeError("boom")
    assert (dict(vars(Base)), dict(vars(Child))) == before
    assert len(tracer.spans) == 2


def test_tracer_restores_the_program_under_test():
    pytest.importorskip("repro")
    from repro.cluster import ClusterService
    from repro.runtime.scheduler import Scheduler
    from repro.serve import JobRequest, TaskService

    owners = (TaskService, ClusterService, Scheduler, JobRequest)
    before = [dict(vars(owner)) for owner in owners]
    tracer = trace.Tracer()
    trace.install(tracer)
    with tracer:
        assert TaskService.submit is not before[0]["submit"]
    assert [dict(vars(owner)) for owner in owners] == before


# -- the spec ---------------------------------------------------------------
def test_spec_names_the_workloads_and_metrics_the_code_produces():
    assert [w["name"] for w in SPEC["workloads"]] == list(loadgen.WORKLOADS)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert end_to_end == set(stats.REP_METRICS) | {"peak_rss_mb", "setup_s"}
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names)) <= 128
