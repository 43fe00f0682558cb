"""``fig-cluster``: scaling, ledger parity, and cross-shard isolation.

The cluster's acceptance figure, three phases:

1. **Scaling** — the same smoke workload (distinct-seed Sobel and
   Monte-Carlo jobs from two tenants) runs on 1, 4 and 8 shards; the
   cluster makespan is the *slowest shard's* engine clock.  On the
   simulated backend that clock is virtual seconds — deterministic and
   host-independent — which is what lets the ``serve_cluster`` bench
   probe gate ≥3x jobs/s at 4 shards and ≥5x at 8 without timing
   repeats.
2. **Ledger parity** — tenant A carries a ledger-accounted budget in
   every scaling run; its lifetime spend summed across all shards must
   match the single-shard figure within 2 % (the chunked lease/refill
   protocol must not create or lose Joules).
3. **Isolation** — the ``fig-serve`` two-tenant scenario replayed on a
   multi-shard cluster: A budgeted at 60 % of its solo price, B
   latency-sensitive and unmetered, jobs consistently hashed across
   shards.  B's shared-versus-solo p95 latency and quality must stay
   inside the same 5 % band that gates the single-service figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import RuntimeConfig
from ..harness.report import format_table
from ..serve.figure import ISOLATION_TOLERANCE, percentile
from ..serve import JobReport, JobRequest, TaskService
from .service import ClusterService, ClusterSpec

__all__ = [
    "ClusterFigData",
    "cluster_smoke_jobs",
    "run_cluster_scale",
    "fig_cluster",
]

#: Ledger-parity acceptance band: per-tenant cluster-wide spend versus
#: the single-shard figure.
PARITY_TOLERANCE = 0.02

#: Scaling-phase budget: large enough that tenant A's governor never
#: binds (every run executes the same work at ratio 1.0 — the parity
#: comparison isolates the *accounting*), yet every Joule still flows
#: through the cluster ledger's lease protocol.
SCALE_BUDGET_J = 1e6


def cluster_smoke_jobs(
    waves: int, *, small: bool = False
) -> list[JobRequest]:
    """The smoke workload: ``2 * waves`` distinct-seed jobs from two
    tenants (A: droppable Monte-Carlo batches, B: accurate Sobel)."""
    samples = 600 if small else 1200
    size = 64 if small else 96
    jobs: list[JobRequest] = []
    for w in range(waves):
        jobs.append(
            JobRequest(
                tenant="a",
                kernel="mc-pi",
                args={"blocks": 8, "samples": samples, "seed": 5000 + w},
            )
        )
        jobs.append(
            JobRequest(
                tenant="b",
                kernel="sobel",
                args={"size": size, "seed": 7000 + w},
            )
        )
    return jobs


def _scale_tenants(budget_j: float) -> tuple[str, str]:
    return (
        f"standard:name='a',budget_j={budget_j},max_pending=4096",
        "premium:name='b',max_pending=4096",
    )


def run_cluster_scale(
    shards: int,
    waves: int,
    *,
    engine: str = "simulated",
    n_workers: int = 16,
    small: bool = False,
    budget_j: float = SCALE_BUDGET_J,
    max_batch: int = 8,
) -> dict:
    """One scaling-phase run: the smoke workload on ``shards`` shards.

    Returns the deterministic figures the probe gates: the cluster
    makespan (slowest shard's engine clock), jobs served, and tenant
    A's ledger-settled lifetime spend.
    """
    config = RuntimeConfig(
        policy="gtb-max", n_workers=n_workers, engine=engine
    )
    jobs = cluster_smoke_jobs(waves, small=small)
    service = ClusterService(
        config,
        tenants=_scale_tenants(budget_j),
        cluster=ClusterSpec(shards=shards),
        max_batch=max_batch,
        compute_quality=False,
    )
    with service:
        reports = [service.submit(job) for job in jobs]
        while service.pending_jobs:
            service.flush()
        makespan = service.makespan_s
        spread = {
            w.index: w.service.tenants["a"].executed
            + w.service.tenants["b"].executed
            for w in service.shards
        }
    ok = sum(1 for r in reports if r.ok)
    return {
        "shards": shards,
        "jobs": len(jobs),
        "ok": ok,
        "makespan_s": makespan,
        "jobs_per_s": len(jobs) / makespan if makespan else 0.0,
        "a_spent_j": service.ledger.spent_j("a"),
        "spread": spread,
    }


@dataclass
class ClusterFigData:
    """Raw numbers of one fig-cluster run plus the rendered view."""

    engine: str
    n_workers: int
    shard_counts: tuple
    scale_runs: dict[int, dict] = field(default_factory=dict)
    iso_shards: int = 4
    a_budget_j: float = 0.0
    a_solo_energy_j: float = 0.0
    a_reports: list[JobReport] = field(default_factory=list)
    b_solo_reports: list[JobReport] = field(default_factory=list)
    b_shared_reports: list[JobReport] = field(default_factory=list)
    tenant_stats: dict = field(default_factory=dict)

    # -- scaling ----------------------------------------------------------
    @property
    def base_shards(self) -> int:
        return min(self.shard_counts)

    def speedup(self, shards: int) -> float:
        """Jobs/s at ``shards`` over the base (single-shard) run, on
        the deterministic virtual timeline."""
        base = self.scale_runs[self.base_shards]["makespan_s"]
        run = self.scale_runs[shards]["makespan_s"]
        return base / run if run else 0.0

    # -- ledger parity ----------------------------------------------------
    @property
    def parity_error(self) -> float:
        """Worst relative deviation of tenant A's cluster-wide spend
        from the single-shard ledger figure."""
        base = self.scale_runs[self.base_shards]["a_spent_j"]
        if base == 0.0:
            return 0.0
        return max(
            abs(run["a_spent_j"] - base) / base
            for run in self.scale_runs.values()
        )

    @property
    def parity_ok(self) -> bool:
        return self.parity_error <= PARITY_TOLERANCE

    # -- isolation --------------------------------------------------------
    @property
    def b_solo_p95_s(self) -> float:
        return percentile(
            [r.latency_s for r in self.b_solo_reports], 0.95
        )

    @property
    def b_shared_p95_s(self) -> float:
        return percentile(
            [r.latency_s for r in self.b_shared_reports], 0.95
        )

    @property
    def b_p95_delta(self) -> float:
        solo = self.b_solo_p95_s
        return (self.b_shared_p95_s - solo) / solo if solo else 0.0

    @property
    def b_quality_delta(self) -> float:
        def mean_quality(reports):
            scored = [
                r.quality for r in reports if r.quality is not None
            ]
            return sum(scored) / len(scored) if scored else 0.0

        return abs(
            mean_quality(self.b_shared_reports)
            - mean_quality(self.b_solo_reports)
        )

    @property
    def isolated(self) -> bool:
        """B within the fig-serve 5 % band, with its jobs (and A's)
        spread across every shard."""
        return (
            abs(self.b_p95_delta) <= ISOLATION_TOLERANCE
            and self.b_quality_delta <= ISOLATION_TOLERANCE
        )

    @property
    def a_mean_served_ratio(self) -> float:
        served = [
            r.ratio_served
            for r in self.a_reports
            if r.ratio_served is not None
        ]
        return sum(served) / len(served) if served else 0.0

    # -- rendering ---------------------------------------------------------
    def render(self) -> str:
        sections = []
        base = self.base_shards
        rows = []
        for n in self.shard_counts:
            run = self.scale_runs[n]
            rows.append(
                [
                    n,
                    run["jobs"],
                    f"{run['makespan_s']:.4g}",
                    f"{run['jobs_per_s']:.4g}",
                    f"{self.speedup(n):.2f}x",
                    f"{run['a_spent_j']:.6g}",
                ]
            )
        sections.append(
            format_table(
                [
                    "shards", "jobs", "makespan (s)", "jobs/s",
                    "speedup", "A spent (J)",
                ],
                rows,
                title=(
                    f"[fig-cluster] smoke workload on "
                    f"'{self.engine}' shards (virtual time, "
                    f"{self.n_workers} workers/shard)"
                ),
            )
        )
        parity = "PASS" if self.parity_ok else "FAIL"
        sections.append(
            f"ledger parity: worst cluster-vs-{base}-shard spend "
            f"deviation {self.parity_error:.3%} "
            f"(band {PARITY_TOLERANCE:.0%}) -> {parity}"
        )
        verdict = "PASS" if self.isolated else "FAIL"
        sections.append(
            f"isolation on {self.iso_shards} shards: B p95 delta "
            f"{self.b_p95_delta:+.2%}, quality delta "
            f"{self.b_quality_delta:.4g} "
            f"(band {ISOLATION_TOLERANCE:.0%}) -> {verdict}; "
            f"A served at mean ratio {self.a_mean_served_ratio:.2f} "
            f"under budget {self.a_budget_j:.4g} J "
            f"({self.a_solo_energy_j:.4g} J solo price)"
        )
        return "\n\n".join(sections)


def _b_request(size: int, wave: int, j: int) -> JobRequest:
    # Distinct seeds: interactive traffic never repeats, so the latency
    # measurement is never a cache artifact.
    return JobRequest(
        tenant="b",
        kernel="sobel",
        args={"size": size, "seed": 1000 + 17 * wave + j},
    )


def fig_cluster(
    small: bool = False,
    n_workers: int = 16,
    engine: str = "simulated",
    shard_counts: tuple = (1, 4, 8),
    iso_shards: int = 4,
    budget_frac: float = 0.6,
) -> ClusterFigData:
    """Run the three-phase cluster figure (see module docstring)."""
    waves = 80 if small else 120
    data = ClusterFigData(
        engine=engine,
        n_workers=n_workers,
        shard_counts=tuple(shard_counts),
        iso_shards=iso_shards,
    )

    # 1+2. Scaling runs (each carries the ledger-parity measurement).
    for shards in shard_counts:
        data.scale_runs[shards] = run_cluster_scale(
            shards,
            waves,
            engine=engine,
            n_workers=n_workers,
            small=small,
        )

    # 3. Isolation on a multi-shard cluster, fig-serve semantics.
    iso_waves = 10 if small else 20
    a_samples = 1000 if small else 4000
    b_size = 128 if small else 256
    a_args = [
        {"blocks": 8, "samples": a_samples, "seed": 2015 + w}
        for w in range(iso_waves)
    ]
    config = RuntimeConfig(
        policy="gtb-max", n_workers=n_workers, engine=engine
    )

    # Price A's stream: solo, unmetered, accurate (a single service —
    # energy on the virtual timeline is shard-count-independent).
    with TaskService(
        config, tenants=("standard:name='a'",), max_batch=4
    ) as solo_a:
        for args in a_args:
            solo_a.submit(
                JobRequest(tenant="a", kernel="mc-pi", args=args)
            )
        while solo_a.pending_jobs:
            solo_a.flush()
        data.a_solo_energy_j = solo_a.tenants["a"].spent_j
    data.a_budget_j = budget_frac * data.a_solo_energy_j

    def _cluster(tenants: tuple) -> ClusterService:
        return ClusterService(
            config,
            tenants=tenants,
            cluster=ClusterSpec(shards=iso_shards),
            max_batch=4,
        )

    # B's reference: solo on the cluster, streamed per wave.
    with _cluster(("premium:name='b'",)) as solo_b:
        for wave in range(iso_waves):
            for j in range(2):
                data.b_solo_reports.append(
                    solo_b.submit(_b_request(b_size, wave, j))
                )
            solo_b.flush()
        while solo_b.pending_jobs:
            solo_b.flush()

    # Shared run: A budgeted and queued up front, B streamed.
    shared = _cluster(
        (
            f"standard:name='a',budget_j={data.a_budget_j},"
            f"max_pending=4096",
            "premium:name='b'",
        )
    )
    with shared:
        for args in a_args:
            data.a_reports.append(
                shared.submit(
                    JobRequest(tenant="a", kernel="mc-pi", args=args)
                )
            )
        for wave in range(iso_waves):
            for j in range(2):
                data.b_shared_reports.append(
                    shared.submit(_b_request(b_size, wave, j))
                )
            shared.flush()
        while shared.pending_jobs:
            shared.flush()
        data.tenant_stats = {
            name: shared.tenant_summary(name)
            for name in ("a", "b")
        }
    return data
