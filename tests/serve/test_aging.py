"""Service aging: what one served job costs must not depend on how
many jobs the service has already settled.

Structural checks on the simulated engine (no clocks): barriers visit
only the groups spawned since the previous barrier, barriers that close
nothing store nothing, policies keep nothing for a settled label, the
trace keeps a fixed tail and a job's retained bytes are bounded — and
none of it moves a number in the final ``RunReport`` or in any job
report (``golden/aging_mixed_stream.json``, dumped at the commit before
barriers became age-independent).
"""

import dataclasses
import gc
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.config import RuntimeConfig
from repro.kernels.fluidanimate import FluidanimateBenchmark
from repro.kernels.jacobi import APPROX_ITERATIONS, JacobiBenchmark
from repro.runtime.scheduler import Scheduler
from repro.serve import JobRequest, TaskService
from repro.serve import rounds
from repro.serve.rounds import TRACE_TAIL

GOLDEN = Path(__file__).parent / "golden" / "aging_mixed_stream.json"

BARRIER_GROUPS = "repro_sched_barrier_groups_total"
BARRIERS = "repro_sched_barriers_total"


def _policy_entries(policy) -> set:
    """Every group label the policy still keeps state for."""
    held = set(getattr(policy, "_buffers", ()))
    for histories in getattr(policy, "_histories", ()):
        held.update(histories)
    return held


class TestBarriersDoNotAge:
    JOBS = 300

    @pytest.mark.parametrize("policy", ["gtb", "gtb-max", "lqh"])
    def test_round_cost_is_structurally_flat(self, policy):
        service = TaskService(
            RuntimeConfig(policy=policy, n_workers=4),
            tenants=("standard:name='t',max_pending=8",),
            compute_quality=False,
        )
        sched = service.scheduler
        visited = service.metrics.counter(BARRIER_GROUPS)
        barriers = service.metrics.counter(BARRIERS)
        for first in range(0, self.JOBS, 2):
            reports = [
                service.submit(
                    JobRequest(
                        tenant="t",
                        kernel="mc-pi",
                        args={"blocks": 6, "samples": 16, "seed": seed},
                        ratio=0.5,
                        job_id=f"a{seed}",
                    )
                )
                for seed in (first, first + 1)
            ]
            before = visited.value, barriers.value
            service.flush()
            assert [r.status for r in reports] == ["executed"] * 2
            # (c) one global barrier, visiting exactly this round's
            # two groups however many the registry holds by now.
            assert barriers.value - before[1] == 1
            assert visited.value - before[0] == 2
            # (b) nothing kept for a settled label.
            assert _policy_entries(sched.policy) == set()
        groups = [g for g in sched.groups if g.spawned]
        assert len(groups) == self.JOBS
        # (a) one stored mark per non-empty barrier slice: each job's
        # group saw 150 global barriers and stored exactly its own.
        assert [g.epoch for g in groups] == [1] * self.JOBS
        assert [len(g.epoch_tallies()) for g in groups] == [1] * self.JOBS
        report = service.close()
        assert [g.epoch for g in groups] == [1] * self.JOBS
        assert len(report.groups) == self.JOBS
        assert report.tasks_total == 6 * self.JOBS


def _mc_job(seed: int) -> JobRequest:
    """A distinct 16-task job (no cache hit, no coalescing)."""
    return JobRequest(
        tenant="t",
        kernel="mc-pi",
        args={"blocks": 16, "samples": 16, "seed": seed},
        ratio=0.5,
        job_id=f"j{seed}",
    )


def _serve(jobs: int, per_round: int = 4, on_round=None) -> TaskService:
    service = TaskService(
        RuntimeConfig(policy="gtb-max", n_workers=4),
        tenants=("standard:name='t'",),
        compute_quality=False,
    )
    for first in range(0, jobs, per_round):
        if on_round is not None:
            on_round(first)
        for seed in range(first, first + per_round):
            service.submit(_mc_job(seed))
        service.flush()
    return service


class TestRetentionIsBounded:
    """A settled job leaves per-epoch tallies, not per-task records,
    and the service trace keeps only its last ``TRACE_TAIL`` segments."""

    JOBS, MARK = 2000, 500

    def test_retained_bytes_per_job(self):
        marks = []

        def on_round(first):
            if first == self.MARK:
                gc.collect()
                tracemalloc.start()
                marks.append(tracemalloc.get_traced_memory()[0])

        try:
            service = _serve(self.JOBS, on_round=on_round)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - marks[0]
        finally:
            tracemalloc.stop()
        trace = service.scheduler.engine.accounting.trace
        completed = sum(g.completed for g in service.scheduler.groups)
        assert len(trace.segments) <= TRACE_TAIL
        assert trace.position == completed == 16 * self.JOBS
        # Per-task decision records and segments alone came to ~5.5 kB
        # per job of this stream.
        assert grown / (self.JOBS - self.MARK) < 3000

    def test_folding_moves_no_reported_number(self, monkeypatch):
        folded = _serve(300)
        assert folded.scheduler.engine.accounting.trace.base > 0
        monkeypatch.setattr(rounds, "TRACE_TAIL", 10**9)
        whole = _serve(300)
        assert whole.scheduler.engine.accounting.trace.base == 0
        a, b = folded.close(), whole.close()
        assert a.tasks_by_kind == b.tasks_by_kind
        assert a.groups == b.groups
        # Bit-identical where sum() adds in order (CPython <= 3.11);
        # later interpreters compensate within each sum() call.
        assert a.makespan_s == b.makespan_s
        assert dataclasses.asdict(a.energy) == pytest.approx(
            dataclasses.asdict(b.energy), rel=1e-12
        )
        assert a.trace.busy_by_worker() == pytest.approx(
            b.trace.busy_by_worker(), rel=1e-12
        )


class TestPaperPhasesUnchanged:
    """Per-phase statistics of the two phase-structured kernels: one
    epoch per sweep/timestep at the ratio that phase requested."""

    @staticmethod
    def _slices(rt, label):
        group = rt.groups.get(label, create=False)
        return [(t.tasks, t.ratio) for t in group.epoch_tallies()]

    @pytest.mark.parametrize("policy", ["gtb:buffer_size=4", "lqh"])
    def test_jacobi_epoch_slices(self, policy):
        bench = JacobiBenchmark(small=True)
        rt = Scheduler(policy=policy, n_workers=4)
        bench.run_tasks(rt, bench.build_input(), 1e-3)
        report = rt.finish()
        chunks = len(bench._chunks())
        slices = self._slices(rt, bench.GROUP)
        sweeps = report.tasks_total // chunks
        assert sweeps > APPROX_ITERATIONS
        assert slices == (
            [(chunks, 0.0)] * APPROX_ITERATIONS
            + [(chunks, 1.0)] * (sweeps - APPROX_ITERATIONS)
        )
        assert rt.groups.get(bench.GROUP).epoch == sweeps

    @pytest.mark.parametrize("policy", ["gtb:buffer_size=4", "lqh"])
    def test_fluidanimate_epoch_slices(self, policy):
        bench = FluidanimateBenchmark(small=True)
        rt = Scheduler(policy=policy, n_workers=4)
        bench.run_tasks(rt, bench.build_input(), 0.25)
        rt.finish()
        chunks = bench.n_particles // bench.chunk
        assert self._slices(rt, bench.GROUP) == [
            (chunks, 1.0 if step % 4 == 0 else 0.0)
            for step in range(bench.steps)
        ]


def _round(value):
    """Floats to 12 significant digits: the goldens survive a BLAS
    with a different summation order, nothing coarser."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(k): _round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v) for v in value]
    return value


def mixed_stream_dump() -> dict:
    """40 jobs, two per round — batch jobs of four kernels on a plain
    and on a metered tenant, a camera stream with a replayed frame, and
    one anytime job — as every report field, ``stats()`` and the closing
    ``RunReport`` (every ``GroupSummary``)."""
    service = TaskService(
        RuntimeConfig(policy="gtb-max", n_workers=8),
        tenants=(
            "standard:name='a'",
            "free:name='b',budget_j=0.003",
        ),
        max_batch=4,
    )
    kernels = [
        ("mc-pi", lambda i: {"blocks": 8, "samples": 64, "seed": i}),
        ("sobel", lambda i: {"size": 32, "seed": i}),
        ("dct", lambda i: {"size": 32, "seed": i}),
        ("kmeans", lambda i: {"points": 128, "k": 3, "seed": i}),
    ]
    reports = []
    for i in range(39):
        if i == 20:
            reports.append(
                service.submit_anytime(
                    JobRequest(
                        tenant="a",
                        kernel="jacobi",
                        args={"n": 64, "chunk": 8, "seed": 3},
                        rounds=3,
                        ratio=0.75,
                        job_id="anytime",
                    )
                )
            )
        kernel, args = kernels[i % 4]
        request = JobRequest(
            tenant="ab"[i % 2],
            kernel=kernel,
            # Every fifth job repeats the one four before it (same
            # kernel), so the stream holds cache hits, not only runs.
            args=args(i - 4 if i % 5 == 4 else i),
            ratio=(0.5, 0.8, 1.0)[i % 3],
            job_id=f"m{i}",
        )
        if i % 6 == 1:
            # The camera lane; the fourth frame replays the third.
            frame = i // 6
            request.kernel = "sobel"
            request.stream = "cam"
            request.args = {"size": 32, "seed": 100 + min(frame, 2)}
        reports.append(service.submit(request))
        if i % 2 == 1:
            service.flush()
    stats = service.stats()
    run = service.close()
    skip = {"wall_latency_s", "trace_id", "span_id"}
    return _round(
        {
            "jobs": [
                {k: v for k, v in r.to_dict().items() if k not in skip}
                for r in reports
            ],
            "stats": stats,
            "run": {
                "policy": run.policy,
                "n_workers": run.n_workers,
                "makespan_s": run.makespan_s,
                "energy": dataclasses.asdict(run.energy),
                "tasks_total": run.tasks_total,
                "tasks_by_kind": {
                    k.value: v for k, v in run.tasks_by_kind.items()
                },
                "groups": {
                    name: dataclasses.asdict(g)
                    for name, g in run.groups.items()
                },
                "queue_stats": dataclasses.asdict(run.queue_stats),
                "dep_stats": dataclasses.asdict(run.dep_stats),
                "mean_ratio_offset": run.mean_ratio_offset(),
                "total_inversion_pct": run.total_inversion_pct(),
            },
        }
    )


class TestReportsUnchanged:
    def test_mixed_stream_matches_parent_golden(self):
        dump = json.loads(json.dumps(mixed_stream_dump()))
        golden = json.loads(GOLDEN.read_text())
        assert dump["jobs"] == golden["jobs"]
        assert dump["stats"] == golden["stats"]
        assert dump["run"] == golden["run"]
        # The stream exercises what it says it does.
        statuses = {job["status"] for job in dump["jobs"]}
        assert {"executed", "cached", "rejected-budget"} <= statuses
        assert any("rounds_run" in job for job in dump["jobs"])
        assert sum("stream" in job for job in dump["jobs"]) >= 4
