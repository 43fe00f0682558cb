"""Scenario conformance harness for the serving job shapes.

Every serving claim this repo makes — streams degrade mid-stream
instead of dropping frames, identical frames replay from cache for
free, anytime jobs refine monotonically and stop at the deadline,
faults degrade answers without corrupting them, the cluster ledger
stays in parity — is pinned here as a **scenario**: one registered
generator that runs real traffic through a real service, collects the
job reports into a :class:`~repro.harness.frames.TraceFrame`, and
produces BOTH a human-readable figure and a machine-checked list of
:class:`Check` assertions.

The registry doubles as the conformance suite: ``python -m
repro.harness fig-scenarios`` renders every figure and exits nonzero
if any check fails, and ``tests/serve/test_scenarios.py`` parametrizes
over :data:`SCENARIOS` so pytest runs the same assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..config import RuntimeConfig
from ..harness.frames import TraceFrame
from ..runtime.errors import ConfigError
from .jobs import STREAM_MIN_RATIO, JobRequest
from .service import TaskService
from .tenants import TenantSpec

__all__ = [
    "Check",
    "ScenarioReport",
    "SCENARIOS",
    "scenario",
    "run_scenarios",
]

#: Monotonicity slack for quality curves: at convergence consecutive
#: qualities graze machine precision and may wobble at the 1e-7 level.
QUALITY_EPS = 1e-6

#: Cluster-wide energy accounting tolerance (ISSUE acceptance: the
#: ledger's settled figure and the shards' own spent sums agree to 2%).
LEDGER_PARITY = 0.02

#: The deterministic faulty-engine spec the fault scenarios run under.
FAULTY_ENGINE = "faulty:fault_rate=0.1,protect_threshold=0.7,seed=3"


@dataclass
class Check:
    """One machine-checked scenario assertion."""

    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"  [{mark}] {self.name}{tail}"


@dataclass
class ScenarioReport:
    """One scenario's outcome: trace frame, figure lines, checks."""

    name: str
    title: str
    frame: TraceFrame
    checks: list[Check] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        out = [f"== scenario: {self.name} — {self.title} =="]
        out += [f"  {line}" for line in self.lines]
        if len(self.frame):
            out.append("")
            out += [
                f"  {row}"
                for row in self.frame.render(max_rows=8).splitlines()
            ]
        out.append("")
        out += [c.render() for c in self.checks]
        verdict = "CONFORMS" if self.passed else "VIOLATION"
        out.append(f"  => {verdict}")
        return "\n".join(out)


#: name -> generator.  Each generator takes ``(small, n_workers)`` and
#: returns a :class:`ScenarioReport`.
SCENARIOS: dict[str, Callable[..., ScenarioReport]] = {}


def scenario(name: str, title: str):
    """Register one scenario generator (ProjectScylla-style registry:
    the module is the catalogue, the decorator the index)."""

    def wrap(fn: Callable[..., ScenarioReport]):
        if name in SCENARIOS:
            raise ConfigError(f"duplicate scenario {name!r}")
        fn.scenario_name = name
        fn.scenario_title = title
        SCENARIOS[name] = fn
        return fn

    return wrap


def run_scenarios(
    names: list[str] | None = None,
    *,
    small: bool = True,
    n_workers: int = 8,
) -> list[ScenarioReport]:
    """Run the selected scenarios (all by default), in registry order."""
    todo = list(SCENARIOS) if not names else list(names)
    unknown = [n for n in todo if n not in SCENARIOS]
    if unknown:
        raise ConfigError(
            f"unknown scenario(s) {unknown}; have {list(SCENARIOS)}"
        )
    return [
        SCENARIOS[name](small=small, n_workers=n_workers)
        for name in todo
    ]


def _config(n_workers: int, engine: str = "simulated") -> RuntimeConfig:
    return RuntimeConfig(
        policy="gtb-max", n_workers=n_workers, engine=engine
    )


# ----------------------------------------------------------------------
# Streaming shapes
# ----------------------------------------------------------------------
@scenario(
    "streaming-degrade",
    "budget pressure degrades frame ratio mid-stream, drops nothing",
)
def scenario_streaming_degrade(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    n_frames = 8 if small else 24
    spec = TenantSpec(name="cam", tier="free", budget_j=1e-6)
    with TaskService(_config(n_workers), tenants=[spec]) as svc:
        reports = []
        for i in range(n_frames):
            reports.append(
                svc.submit(
                    JobRequest(
                        tenant="cam",
                        kernel="sobel",
                        args={"size": 24, "seed": 100 + i},
                        stream="cam0",
                        ratio=0.9,
                    )
                )
            )
            svc.flush()
        summary = svc.stats()["streams"]["cam/cam0"]
    frame = TraceFrame.from_reports(reports)
    degraded = frame.filter(
        lambda r: r["ratio_served"] is not None
        and r["ratio_served"] <= STREAM_MIN_RATIO + 1e-9
    )
    checks = [
        Check(
            "every frame answered 200",
            all(r.ok for r in reports),
            str(frame.value_counts("status")),
        ),
        Check(
            "frame order preserved",
            frame.col("frame") == list(range(n_frames)),
        ),
        Check(
            "budget pressure degraded ratio mid-stream",
            len(degraded) > 0 and summary["degraded"] > 0,
            f"{summary['degraded']}/{n_frames} frames degraded",
        ),
        Check(
            "no frame dropped or rejected",
            summary["rejected"] == 0
            and all(r.status != "rejected-budget" for r in reports),
        ),
        Check(
            "served ratio never below the stream minimum",
            frame.min("ratio_served") >= STREAM_MIN_RATIO - 1e-9,
            f"min served ratio {frame.min('ratio_served'):.3f}",
        ),
    ]
    return ScenarioReport(
        name="streaming-degrade",
        title="budget pressure degrades frame ratio mid-stream",
        frame=frame,
        checks=checks,
        lines=[
            f"{n_frames} ordered sobel frames, free tenant with a "
            f"{spec.budget_j:g} J budget",
            f"mean served ratio {frame.mean('ratio_served'):.3f}, "
            f"stream counters {summary}",
        ],
    )


@scenario(
    "streaming-cache-replay",
    "identical re-submitted frames replay from cache at zero energy",
)
def scenario_streaming_cache_replay(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    with TaskService(
        _config(n_workers), tenants=("premium:name='p'",)
    ) as svc:
        args = {"size": 24, "seed": 7}
        first = svc.submit(
            JobRequest(
                tenant="p", kernel="sobel", args=args,
                stream="cam0", ratio=0.5,
            )
        )
        svc.flush()
        replay = svc.submit(
            JobRequest(
                tenant="p", kernel="sobel", args=args,
                stream="cam0", ratio=0.5,
            )
        )
        summary = svc.stats()["streams"]["p/cam0"]
    frame = TraceFrame.from_reports([first, replay])
    checks = [
        Check(
            "first submission executed",
            first.status == "executed",
            first.status,
        ),
        Check(
            "floor above request still served (regression)",
            first.ratio_served is not None
            and first.ratio_served >= 0.7 - 1e-9,
            f"served {first.ratio_served}",
        ),
        Check(
            "identical frame replayed from cache",
            replay.served_from_cache,
            replay.status,
        ),
        Check(
            "replay cost zero energy",
            replay.energy_j == 0.0,
            f"{replay.energy_j} J",
        ),
        Check(
            "replay advanced the frame lane",
            summary["next_frame"] == 2,
            f"next_frame {summary['next_frame']}",
        ),
    ]
    return ScenarioReport(
        name="streaming-cache-replay",
        title="identical frames replay from cache",
        frame=frame,
        checks=checks,
        lines=[
            "same sobel frame submitted twice on a premium stream "
            "(ratio floor 0.7 > requested 0.5)",
        ],
    )


# ----------------------------------------------------------------------
# Anytime shapes
# ----------------------------------------------------------------------
@scenario(
    "anytime-jacobi",
    "iterative jacobi refines monotonically, client takes at deadline",
)
def scenario_anytime_jacobi(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    rounds = 8 if small else 16
    args = {"n": 64 if small else 256, "chunk": 8, "seed": 3}
    with TaskService(
        _config(n_workers), tenants=("premium:name='lab'",)
    ) as svc:
        full = svc.submit_anytime(
            JobRequest(
                tenant="lab", kernel="jacobi", args=args,
                ratio=1.0, rounds=rounds,
            )
        )
        capped = svc.submit_anytime(
            JobRequest(
                tenant="lab",
                kernel="jacobi",
                args={**args, "seed": 4},
                rounds=rounds,
                deadline_s=1e-9,
                job_id="deadline",
            )
        )
    q = full.round_quality
    frame = TraceFrame.from_records(
        [
            {"round": i, "quality": qi, "job": "full"}
            for i, qi in enumerate(q)
        ]
        + [
            {"round": i, "quality": qi, "job": "deadline"}
            for i, qi in enumerate(capped.round_quality)
        ]
    )
    checks = [
        Check(
            "all rounds ran",
            full.rounds_run == rounds,
            f"{full.rounds_run}/{rounds}",
        ),
        Check(
            "quality improves monotonically (eps)",
            all(
                q[i + 1] <= q[i] + QUALITY_EPS
                for i in range(len(q) - 1)
            ),
            f"curve {[round(v, 6) for v in q]}",
        ),
        Check(
            "at least 10x refinement over the run",
            q[0] > 0 and q[-1] < q[0] / 10,
            f"{q[0]:.3g} -> {q[-1]:.3g}",
        ),
        Check(
            "deadline takes the current answer early",
            capped.status == "executed"
            and capped.rounds_run < rounds
            and "deadline" in capped.detail,
            capped.detail,
        ),
    ]
    return ScenarioReport(
        name="anytime-jacobi",
        title="jacobi anytime refinement",
        frame=frame,
        checks=checks,
        lines=[
            f"jacobi n={args['n']}, {rounds} rounds; a second job "
            "with a 1 ns deadline",
        ],
    )


@scenario(
    "anytime-kmeans",
    "iterative kmeans improves per round, early take stops the loop",
)
def scenario_anytime_kmeans(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    rounds = 8 if small else 16
    args = {
        "points": 256 if small else 1024,
        "k": 4,
        "chunk": 64,
        "seed": 5,
    }
    taken = []
    with TaskService(
        _config(n_workers), tenants=("premium:name='lab'",)
    ) as svc:
        full = svc.submit_anytime(
            JobRequest(
                tenant="lab", kernel="kmeans", args=args,
                ratio=1.0, rounds=rounds,
            )
        )
        early = svc.submit_anytime(
            JobRequest(
                tenant="lab",
                kernel="kmeans",
                args={**args, "seed": 6},
                rounds=rounds,
                job_id="early",
            ),
            on_round=lambda rr: taken.append(rr.round) or rr.round < 2,
        )
    q = full.round_quality
    frame = TraceFrame.from_records(
        {"round": i, "quality": qi} for i, qi in enumerate(q)
    )
    checks = [
        Check(
            "first round is not already converged",
            q[0] > 0,
            f"q0 {q[0]:.3g}",
        ),
        Check(
            "final quality at least as good as the first",
            q[-1] <= q[0] + QUALITY_EPS,
            f"{q[0]:.3g} -> {q[-1]:.3g}",
        ),
        Check(
            "early take stops after the callback says so",
            early.rounds_run == 3 and "early take" in early.detail,
            early.detail,
        ),
        Check(
            "callback saw every executed round",
            taken == [0, 1, 2],
            str(taken),
        ),
    ]
    return ScenarioReport(
        name="anytime-kmeans",
        title="kmeans anytime refinement",
        frame=frame,
        checks=checks,
        lines=[
            f"kmeans points={args['points']}, {rounds} rounds; a "
            "second job early-taken after round 3",
        ],
    )


# ----------------------------------------------------------------------
# Faults under load
# ----------------------------------------------------------------------
def _degraded_not_wrong_checks(reports, frame: TraceFrame) -> list[Check]:
    """The shared fault-scenario contract: shed or degrade, never
    corrupt, never error."""
    import math

    pi_jobs = [
        r for r in reports
        if r.kernel == "mc-pi" and r.status == "executed"
        and isinstance(r.output, float)
    ]
    qualities = [
        r.quality for r in reports if r.quality is not None
    ]
    return [
        Check(
            "no 5xx/4xx beyond load shedding",
            all(r.code in (200, 429) for r in reports),
            str(frame.value_counts("code")),
        ),
        Check(
            "executed mc-pi answers stay near pi",
            all(
                math.isfinite(r.output)
                and abs(r.output - math.pi) < 0.8
                for r in pi_jobs
            ),
            f"{len(pi_jobs)} mc-pi jobs",
        ),
        Check(
            "quality bounded (degraded, not wrong)",
            all(0.0 <= v < 1.0 for v in qualities),
            f"max quality {max(qualities):.3g}"
            if qualities
            else "no scored jobs",
        ),
    ]


@scenario(
    "faults-under-serve",
    "omission faults under serve load degrade answers, never corrupt",
)
def scenario_faults_under_serve(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    n_jobs = 24 if small else 96
    with TaskService(
        _config(n_workers, engine=FAULTY_ENGINE),
        tenants=(
            "standard:name='acme'",
            "free:name='hobby',budget_j=0.002",
        ),
    ) as svc:
        reports = []
        for i in range(n_jobs):
            tenant = "acme" if i % 2 == 0 else "hobby"
            if i % 3 == 0:
                kernel, args = "mc-pi", {
                    "blocks": 6, "samples": 300, "seed": i % 5,
                }
            else:
                kernel, args = "sobel", {"size": 24, "seed": i % 7}
            reports.append(
                svc.submit(
                    JobRequest(
                        tenant=tenant, kernel=kernel, args=args,
                        ratio=0.8, job_id=f"j{i}",
                    )
                )
            )
            if i % 4 == 3:
                svc.flush()
        svc.flush()
        faults = len(svc.scheduler.engine.fault_log.records)
        floors = {
            name: state.spec.ratio_floor
            for name, state in svc.tenants.items()
        }
    frame = TraceFrame.from_reports(reports)
    served = frame.filter(lambda r: r["code"] == 200)
    checks = _degraded_not_wrong_checks(reports, frame) + [
        Check("faults actually fired", faults > 0, f"{faults} faults"),
        Check(
            "ratio floors held under faults",
            all(
                r.ratio_served is None
                or r.ratio_served >= floors[r.tenant] - 1e-9
                for r in reports
            ),
        ),
        Check(
            "most jobs still served",
            len(served) >= n_jobs // 2,
            f"{len(served)}/{n_jobs} served",
        ),
    ]
    return ScenarioReport(
        name="faults-under-serve",
        title="faults under serve load",
        frame=frame,
        checks=checks,
        lines=[
            f"{n_jobs} mixed jobs on the {FAULTY_ENGINE!r} engine",
            f"{faults} injected faults; outcomes "
            f"{frame.value_counts('status')}",
        ],
    )


@scenario(
    "faults-under-cluster",
    "faulty shards stay degraded-not-wrong with ledger parity <= 2%",
)
def scenario_faults_under_cluster(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    from ..cluster.service import ClusterService

    n_jobs = 24 if small else 96
    budget_j = 0.004
    svc = ClusterService(
        _config(n_workers, engine=FAULTY_ENGINE),
        tenants=[
            TenantSpec(name="acme", tier="standard"),
            TenantSpec(
                name="hobby", tier="free", budget_j=budget_j
            ),
        ],
        cluster=3,
    )
    try:
        reports = []
        for i in range(n_jobs):
            tenant = "acme" if i % 2 == 0 else "hobby"
            if i % 3 == 0:
                kernel, args = "mc-pi", {
                    "blocks": 6, "samples": 300, "seed": i % 5,
                }
            else:
                kernel, args = "sobel", {"size": 24, "seed": i % 7}
            reports.append(
                svc.submit(
                    JobRequest(
                        tenant=tenant, kernel=kernel, args=args,
                        ratio=0.8, job_id=f"j{i}",
                    )
                )
            )
            if i % 4 == 3:
                svc.flush()
        svc.flush()
        faults = sum(
            len(w.service.scheduler.engine.fault_log.records)
            for w in svc.shards
        )
        summary = svc.tenant_summary("hobby")
    finally:
        svc.close()
    frame = TraceFrame.from_reports(reports)
    spent = summary["spent_j"]
    settled = summary["ledger_settled_j"]
    parity = (
        abs(spent - settled) / max(spent, settled)
        if max(spent, settled) > 0
        else 0.0
    )
    checks = _degraded_not_wrong_checks(reports, frame) + [
        Check(
            "faults fired across shards", faults > 0, f"{faults} faults"
        ),
        Check(
            "ledger parity within tolerance",
            parity <= LEDGER_PARITY,
            f"shards {spent:.3g} J vs ledger {settled:.3g} J "
            f"({parity:.2%})",
        ),
        Check(
            "cluster budget never overspent unboundedly",
            spent <= budget_j * 1.5,
            f"{spent:.3g} J of {budget_j:g} J",
        ),
    ]
    return ScenarioReport(
        name="faults-under-cluster",
        title="faults under cluster load",
        frame=frame,
        checks=checks,
        lines=[
            f"{n_jobs} mixed jobs across 3 faulty shards",
            f"hobby: spent {spent:.3g} J, ledger {settled:.3g} J, "
            f"parity {parity:.2%}",
        ],
    )
