"""``fig-serve``: the two-tenant isolation figure.

The serving subsystem's acceptance scenario: tenants A and B share one
engine; A (batch traffic) carries an energy budget at
``budget_frac`` (60 %) of what its stream costs accurately on a solo
service, B (interactive traffic) is unmetered and latency-sensitive.
The figure runs three streams —

1. **A solo, accurate** — prices A's stream, fixing the budget;
2. **B solo** — B's reference quality and p95 latency;
3. **shared** — A (budgeted) and B interleaved on one engine, A's whole
   batch queued up front, B streamed per round —

and reports, per tenant, the admission outcome mix, energy versus
budget, served ratio, and quality; and for B the solo-versus-shared
p95-latency and quality deltas with a 5 % verdict.  On the simulated
engine every number is deterministic (latencies are virtual seconds),
which is what lets ``tests/serve`` assert the verdict bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..config import RuntimeConfig
from ..harness.report import format_table
from .jobs import JobReport, JobRequest
from .service import TaskService

__all__ = ["percentile", "ServeFigData", "fig_serve"]

#: Isolation acceptance band: B's shared-run quality and p95 latency
#: must sit within this fraction of its solo run.
ISOLATION_TOLERANCE = 0.05


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (p95 of latencies and friends)."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _p95_latency(reports: list[JobReport]) -> float:
    return percentile([r.latency_s for r in reports], 0.95)


def _mean_quality(reports: list[JobReport]) -> float:
    scored = [r.quality for r in reports if r.quality is not None]
    return sum(scored) / len(scored) if scored else 0.0


def _mean_served_ratio(reports: list[JobReport]) -> float:
    served = [
        r.ratio_served for r in reports if r.ratio_served is not None
    ]
    return sum(served) / len(served) if served else 0.0


@dataclass
class ServeFigData:
    """Raw numbers of one fig-serve run plus the rendered view."""

    engine: str
    budget_frac: float
    a_budget_j: float
    a_solo_energy_j: float
    tenant_stats: dict[str, dict] = field(default_factory=dict)
    a_reports: list[JobReport] = field(default_factory=list)
    b_solo_reports: list[JobReport] = field(default_factory=list)
    b_shared_reports: list[JobReport] = field(default_factory=list)

    # -- acceptance metrics ----------------------------------------------
    @property
    def b_solo_p95_s(self) -> float:
        return _p95_latency(self.b_solo_reports)

    @property
    def b_shared_p95_s(self) -> float:
        return _p95_latency(self.b_shared_reports)

    @property
    def b_p95_delta(self) -> float:
        """Fractional p95-latency change of B, shared versus solo."""
        solo = self.b_solo_p95_s
        return (self.b_shared_p95_s - solo) / solo if solo else 0.0

    @property
    def b_quality_delta(self) -> float:
        """Absolute quality change of B (both sides ~0 when accurate)."""
        return abs(
            _mean_quality(self.b_shared_reports)
            - _mean_quality(self.b_solo_reports)
        )

    @property
    def a_mean_served_ratio(self) -> float:
        return _mean_served_ratio(self.a_reports)

    @property
    def a_degraded(self) -> bool:
        """Did the service degrade A (lower ratio or degraded cache)?"""
        return self.a_mean_served_ratio < 1.0 - 1e-9 or any(
            r.status == "cached-degraded" for r in self.a_reports
        )

    @property
    def isolated(self) -> bool:
        """The acceptance bit: B within the 5 % band on both axes."""
        return (
            abs(self.b_p95_delta) <= ISOLATION_TOLERANCE
            and self.b_quality_delta <= ISOLATION_TOLERANCE
        )

    # -- rendering ---------------------------------------------------------
    def render(self) -> str:
        sections = []
        rows = []
        for name, stats in self.tenant_stats.items():
            rows.append(
                [
                    name,
                    stats["tier"],
                    "-" if stats["budget_j"] is None
                    else stats["budget_j"],
                    stats["spent_j"],
                    stats["executed"],
                    stats["cached"] + stats["cached_degraded"],
                    stats["coalesced"],
                    stats["rejected"],
                    stats["ratio"],
                ]
            )
        sections.append(
            format_table(
                [
                    "tenant", "tier", "budget (J)", "spent (J)",
                    "executed", "cached", "coalesced", "rejected",
                    "ratio",
                ],
                rows,
                title=(
                    f"[fig-serve] two tenants on one shared "
                    f"'{self.engine}' engine — A budget at "
                    f"{self.budget_frac:.0%} of its solo energy "
                    f"({self.a_budget_j:.4g} J of "
                    f"{self.a_solo_energy_j:.4g} J)"
                ),
            )
        )

        sections.append(
            format_table(
                ["stream", "jobs", "mean ratio", "mean quality",
                 "p95 latency (s)"],
                [
                    [
                        "A shared (budgeted)",
                        len(self.a_reports),
                        self.a_mean_served_ratio,
                        _mean_quality(self.a_reports),
                        _p95_latency(self.a_reports),
                    ],
                    [
                        "B solo",
                        len(self.b_solo_reports),
                        _mean_served_ratio(self.b_solo_reports),
                        _mean_quality(self.b_solo_reports),
                        self.b_solo_p95_s,
                    ],
                    [
                        "B shared",
                        len(self.b_shared_reports),
                        _mean_served_ratio(self.b_shared_reports),
                        _mean_quality(self.b_shared_reports),
                        self.b_shared_p95_s,
                    ],
                ],
                title="per-stream outcomes",
            )
        )

        verdict = "PASS" if self.isolated else "FAIL"
        degraded = "yes" if self.a_degraded else "NO"
        sections.append(
            f"isolation: B p95 delta {self.b_p95_delta:+.2%}, "
            f"quality delta {self.b_quality_delta:.4g} "
            f"(band {ISOLATION_TOLERANCE:.0%}) -> {verdict}; "
            f"A degraded under budget: {degraded}"
        )
        return "\n\n".join(sections)


def _b_request(size: int, wave: int, j: int) -> JobRequest:
    # Distinct seeds: B's interactive traffic never repeats, so every
    # job really executes (the latency measurement must not be a cache
    # artifact).
    return JobRequest(
        tenant="b",
        kernel="sobel",
        args={"size": size, "seed": 1000 + 17 * wave + j},
    )


def _service(engine: str, n_workers: int, tenants: tuple) -> TaskService:
    return TaskService(
        RuntimeConfig(policy="gtb-max", n_workers=n_workers, engine=engine),
        tenants=tenants,
        max_batch=4,
    )


def fig_serve(
    small: bool = False,
    n_workers: int = 16,
    engine: str = "simulated",
    budget_frac: float = 0.6,
    waves: int | None = None,
    b_jobs_per_wave: int = 2,
) -> ServeFigData:
    """Run the two-tenant isolation scenario (see module docstring).

    ``waves`` is the number of B submission rounds; A queues one job
    per wave up front.  Sizes shrink under ``small`` so the whole
    figure runs in seconds.
    """
    waves = waves if waves is not None else (10 if small else 20)
    # A = droppable Monte-Carlo batches (mode D: a degraded block costs
    # nothing), B = accurate Sobel, sized so even A's *budgeted* load
    # stays a small fraction of B's rounds.
    a_samples = 1000 if small else 4000
    b_size = 128 if small else 256
    a_args = [
        {"blocks": 8, "samples": a_samples, "seed": 2015 + w}
        for w in range(waves)
    ]

    # 1. Price A's stream: solo, unmetered, accurate.
    solo_a = _service(engine, n_workers, ("standard:name='a'",))
    with solo_a:
        for args in a_args:
            solo_a.submit(
                JobRequest(tenant="a", kernel="mc-pi", args=args)
            )
        while solo_a.pending_jobs:
            solo_a.flush()
        a_solo_energy = solo_a.tenants["a"].spent_j
    budget_j = budget_frac * a_solo_energy

    # 2. B's reference: solo service, streamed per wave.
    solo_b = _service(engine, n_workers, ("premium:name='b'",))
    b_solo_reports = []
    with solo_b:
        for wave in range(waves):
            for j in range(b_jobs_per_wave):
                b_solo_reports.append(
                    solo_b.submit(_b_request(b_size, wave, j))
                )
            solo_b.flush()
        while solo_b.pending_jobs:
            solo_b.flush()

    # 3. Shared run: A budgeted and queued up front, B streamed.
    shared = _service(
        engine,
        n_workers,
        (
            f"standard:name='a',budget_j={budget_j},max_pending=4096",
            "premium:name='b'",
        ),
    )
    a_reports: list[JobReport] = []
    b_shared_reports: list[JobReport] = []
    with shared:
        for args in a_args:
            a_reports.append(
                shared.submit(
                    JobRequest(tenant="a", kernel="mc-pi", args=args)
                )
            )
        for wave in range(waves):
            for j in range(b_jobs_per_wave):
                b_shared_reports.append(
                    shared.submit(_b_request(b_size, wave, j))
                )
            shared.flush()
        while shared.pending_jobs:
            shared.flush()
        tenant_stats = {
            name: state.summary()
            for name, state in shared.tenants.items()
        }

    return ServeFigData(
        engine=engine,
        budget_frac=budget_frac,
        a_budget_j=budget_j,
        a_solo_energy_j=a_solo_energy,
        tenant_stats=tenant_stats,
        a_reports=a_reports,
        b_solo_reports=b_solo_reports,
        b_shared_reports=b_shared_reports,
    )
