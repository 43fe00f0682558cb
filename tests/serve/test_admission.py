"""What one admission ladder and one group executor guarantee:
``submit`` and ``submit_anytime`` refuse a job identically, and both job
shapes are billed busy-seconds x active-core watts, exactly."""

import gc
import weakref

import pytest

from repro.config import RuntimeConfig
from repro.runtime.task import ExecutionKind
from repro.serve import JobRequest, TaskService
from repro.serve.tenants import TenantSpec

JACOBI = {"n": 64, "chunk": 8, "seed": 3}


def _service(**tenant) -> TaskService:
    spec = TenantSpec(name="t", **tenant)
    return TaskService(
        RuntimeConfig(policy="gtb-max", n_workers=8), tenants=[spec]
    )


def _queue_one(svc: TaskService, job_id: str = "first") -> None:
    queued = svc.submit(
        JobRequest(tenant="t", kernel="jacobi", args=JACOBI, job_id=job_id)
    )
    assert queued.status == "queued"


def _exhaust_budget(svc: TaskService) -> None:
    _queue_one(svc)
    svc.flush()
    assert svc.tenants["t"].over_budget


#: name -> (tenant spec kwargs, setup, request overrides, status, code)
REJECTIONS = {
    "unknown-tenant": (
        {}, None, {"tenant": "ghost"}, "rejected-unknown-tenant", 404,
    ),
    "duplicate-id": (
        {}, _queue_one, {"job_id": "first"}, "rejected-duplicate-id", 409,
    ),
    "unknown-kernel": (
        {}, None, {"kernel": "nope"}, "rejected-unknown-kernel", 404,
    ),
    "bad-args": (
        {}, None, {"args": {"n": "many"}}, "rejected-bad-args", 400,
    ),
    "over-budget": (
        # A different seed than the exhausting job: nothing cached to
        # degrade to, so submit sheds exactly as submit_anytime does.
        {"budget_j": 1e-6}, _exhaust_budget,
        {"args": {**JACOBI, "seed": 4}}, "rejected-budget", 429,
    ),
    "queue-full": (
        {"max_pending": 1}, _queue_one, {}, "rejected-queue", 429,
    ),
}


class TestRejectionParity:
    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_submit_and_submit_anytime_refuse_identically(self, case):
        tenant, setup, overrides, status, code = REJECTIONS[case]
        outcomes = []
        for entry, shape in (
            ("submit", {}),
            ("submit_anytime", {"rounds": 3}),
        ):
            svc = _service(**tenant)
            if setup is not None:
                setup(svc)
            before = svc.tenants["t"].rejected
            fields = {
                "tenant": "t", "kernel": "jacobi", "args": JACOBI,
                "job_id": "probe", **shape, **overrides,
            }
            report = getattr(svc, entry)(JobRequest(**fields))
            outcomes.append(
                (
                    report.status,
                    report.code,
                    report.detail,
                    svc.tenants["t"].rejected - before,
                )
            )
            svc.close()
        via_submit, via_anytime = outcomes
        assert via_submit == via_anytime
        assert via_submit[:2] == (status, code)
        # An unknown tenant has no state to count the rejection on.
        assert via_submit[3] == (0 if case == "unknown-tenant" else 1)


def _group_joules(svc: TaskService, label: str) -> float:
    """The billing expression, recomputed from the trace: the group's
    busy seconds by kind, summed, times the active-core watts."""
    machine = svc.scheduler.machine_model
    watts = machine.busy_extra_w() + machine.core_idle_w
    segments = svc.scheduler.engine.accounting.trace.segments
    busy = {
        kind: sum(
            seg.duration
            for seg in segments
            if seg.group == label and seg.kind is kind
        )
        for kind in (ExecutionKind.ACCURATE, ExecutionKind.APPROXIMATE)
    }
    return (
        busy[ExecutionKind.ACCURATE] + busy[ExecutionKind.APPROXIMATE]
    ) * watts


class TestBillingIdentity:
    """Simulated engine: deterministic, so equality is exact."""

    def test_batch_job_is_billed_its_group(self):
        svc = _service(budget_j=10.0)
        report = svc.submit(
            JobRequest(
                tenant="t", kernel="sobel", args={"size": 32},
                ratio=0.5, job_id="b",
            )
        )
        svc.flush()
        assert report.status == "executed"
        assert report.approximate > 0
        assert report.energy_j == _group_joules(svc, "t/b") > 0.0
        assert svc.tenants["t"].spent_j == report.energy_j
        svc.close()

    def test_anytime_job_is_billed_its_round_groups(self):
        svc = _service(budget_j=10.0)
        rounds = []
        report = svc.submit_anytime(
            JobRequest(
                tenant="t", kernel="jacobi", args=JACOBI,
                ratio=0.5, rounds=3, job_id="a",
            ),
            on_round=rounds.append,
        )
        assert report.rounds_run == 3
        billed = 0.0
        for r, result in enumerate(rounds):
            assert result.energy_j == _group_joules(svc, f"t/a#r{r}") > 0.0
            billed += result.energy_j
        assert report.energy_j == billed
        assert svc.tenants["t"].spent_j == billed
        svc.close()


class TestRoundLifetime:
    def test_settled_job_is_freed_without_the_cyclic_collector(self):
        """A queue entry holds the job's plan (its input data) and its
        group's results; a reference cycle through it would keep every
        round's arrays alive until a gc pass (seen as +13 % peak RSS on
        the cold serve benchmark)."""
        svc = _service()
        _queue_one(svc)
        (entry,) = svc._queues["t"]  # noqa: SLF001 - white-box lifetime
        ref = weakref.ref(entry)
        del entry
        gc.disable()
        try:
            svc.flush()
            assert ref() is None
        finally:
            gc.enable()
        svc.close()
