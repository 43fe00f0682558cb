"""``TaskService`` — the significance-aware runtime as a service.

The paper's runtime trades quality for energy one batch run at a time;
the service composes the pieces grown around it (registries, pluggable
engines, batched spawn, the budget governor) into a long-lived,
multi-tenant *task service*.  One shared
:class:`~repro.runtime.scheduler.Scheduler` (any execution backend)
multiplexes every tenant's jobs: each admitted job becomes one task
group (label ``tenant/job-id``), whole admission rounds are spawned
through the batched ``spawn_many`` fast path, and one barrier per
round retires them.  Per-job energy, decision mix, quality and latency
are carved out of the shared trace by group.

The class is assembled from its two halves —
:class:`~repro.serve.admission.AdmissionMixin` (who gets in:
per-tenant queue caps and lifetime energy budgets; a tenant over
budget or over its queue cap is answered from the approximate-result
cache when an acceptable lower-ratio entry exists, and rejected
429-style otherwise) and :class:`~repro.serve.rounds.RoundsMixin`
(what runs, and what it costs) — over the shared
:class:`~repro.serve.contract.ServiceBase`; this module holds the three
job entry points (``submit``, ``submit_anytime``, ``flush``) written as
sequences of those halves' steps, plus the wiring, the telemetry and
the lifecycle.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..config import RuntimeConfig
from ..obs import MetricsRegistry, SpanRecorder
from ..runtime.errors import ConfigError
from ..runtime.scheduler import Scheduler
from .admission import AdmissionMixin, _Admitted
from .cache import ApproxResultCache, _ratio_key
from .contract import ServiceBase
from .jobs import JobReport, JobRequest
from .rounds import RoundsMixin

__all__ = ["TaskService", "DEFAULT_SERVE_CONFIG"]

#: Default runtime for a service: GTB Max-Buffer stamps each round's
#: decisions at the round barrier by sorting every job group on
#: significance, so a job served at ratio r gets *exactly*
#: ``ceil(r * B)`` accurate tasks — per-job groups are far too small
#: for LQH's per-worker histograms to warm up.
DEFAULT_SERVE_CONFIG = RuntimeConfig(policy="gtb-max", n_workers=16)


class TaskService(AdmissionMixin, RoundsMixin, ServiceBase):
    """The in-process multi-tenant serving core (see module docstring).

    Parameters
    ----------
    config:
        :class:`~repro.config.RuntimeConfig` for the shared scheduler;
        its ``tenants`` field (tenant spec strings) populates the
        tenant table.  Default: GTB Max-Buffer on 16 simulated workers
        (see :data:`DEFAULT_SERVE_CONFIG`).
    tenants:
        Extra tenant specs/instances, merged over ``config.tenants``.
        With neither, a single unmetered ``"standard"`` tenant is
        provisioned.
    cache_capacity:
        LRU capacity of the approximate-result cache.
    cache:
        An already-built cache to use instead of a private
        :class:`~repro.serve.cache.ApproxResultCache` — anything with
        the same ``get`` / ``get_degraded`` / ``put`` / ``stats``
        surface.  The cluster layer injects a per-shard
        :class:`~repro.cluster.cache.CacheView` here so every shard
        reads through one logical sharded cache.
    max_batch:
        Jobs executed per round, drained round-robin across tenants.
    compute_quality:
        Score every executed job against the kernel's accurate
        reference (cached per argument digest).  Turn off when serving
        throughput matters more than reporting.

    Notes
    -----
    The result cache and reference cache are LRU-bounded, and task
    descriptors are recycled through the process
    :class:`~repro.runtime.task.TaskSlab` once a round settles (unless
    the config carries a service-level governor, whose cost priors
    sample ``scheduler.tasks`` and therefore force retention).  A
    settled group keeps per-epoch tallies, not per-task records, and
    settlement folds the shared trace down to its last
    :data:`~repro.serve.rounds.TRACE_TAIL` segments (a service-level
    governor samples the whole trace, so a governed service keeps it
    all).  What still accumulates per *executed* job is its task-group
    record and ``job_meta`` entry — the final
    :class:`~repro.runtime.stats.RunReport`'s group summaries and the
    Chrome trace's tags — plus its spans, up to the recorder's ring.
    No round and no barrier does work proportional to the jobs already
    settled (barriers visit the round's own groups, policies keep
    nothing for a settled label).  A service therefore scales to
    campaigns of many thousands of jobs, not to an unbounded daemon
    lifetime — recycle the service (``close()`` + rebuild) between
    campaigns; the cheap admission paths (cache hits, rejections)
    allocate nothing per job.
    """

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        tenants: tuple | list = (),
        *,
        cache_capacity: int = 128,
        cache=None,
        max_batch: int = 8,
        compute_quality: bool = True,
        metrics: MetricsRegistry | None = None,
        spans: SpanRecorder | None = None,
        shard: str | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        self.config = config if config is not None else DEFAULT_SERVE_CONFIG
        super().__init__(metrics, spans)
        self._shard_label = shard if shard is not None else "0"
        self._init_admission(self._tenant_roster(self.config, tenants))
        self.cache = (
            cache
            if cache is not None
            else ApproxResultCache(cache_capacity, metrics=self._metrics)
        )
        self.max_batch = max_batch
        self.compute_quality = compute_quality
        self._init_rounds(self.config, cache_capacity)
        self.run_report = None
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Capture metric handles once (no-op-when-disabled guard: the
        hot paths test a single attribute against ``None``)."""
        m = self._metrics
        self._m_jobs = self._m_energy = self._m_latency = None
        self._m_rounds = self._m_anytime = None
        self._m_stream_frames = None
        self._m_stream_degraded = self._m_stream_rejected = None
        if m is None:
            return
        self._m_jobs = m.counter(
            "repro_jobs_total",
            "Terminal job reports by tenant and status.",
            labels=("tenant", "status"),
        )
        self._m_energy = m.counter(
            "repro_tenant_energy_joules_total",
            "Joules billed to each tenant (busy seconds x watts).",
            labels=("tenant",),
        )
        self._m_latency = m.histogram(
            "repro_job_latency_seconds",
            "Wall latency of served (code 200) jobs.",
            labels=("tenant",),
        )
        self._m_rounds = m.counter(
            "repro_serve_rounds_total",
            "Admission rounds executed on the shared engine.",
        )
        self._m_anytime = m.counter(
            "repro_anytime_rounds_total",
            "Anytime refinement rounds executed.",
            labels=("tenant",),
        )
        self._m_stream_frames = m.counter(
            "repro_stream_frames_total",
            "Stream frames admitted (per lane).",
            labels=("tenant", "stream"),
        )
        self._m_stream_degraded = m.counter(
            "repro_stream_degraded_total",
            "Stream frames served degraded under budget pressure.",
            labels=("tenant", "stream"),
        )
        self._m_stream_rejected = m.counter(
            "repro_stream_rejected_total",
            "Stream frames refused (out of order / backpressure).",
            labels=("tenant", "stream"),
        )
        # Budgeted tenants' governors report their control state under
        # this tenant's scope (the run-level governor, when configured,
        # is bound by the Scheduler under scope "_run").
        for name, state in self._tenants.items():
            if state.governor is not None:
                state.governor.obs_bind(m, scope=name)

    # -- the job entry points ---------------------------------------------
    def submit(self, request: JobRequest | dict) -> JobReport:
        """Admit one job.

        Returns a completed :class:`JobReport` for cache-served and
        rejected jobs; a ``status="queued"`` report otherwise — the
        *same object* is filled in by the job's execution round (see
        ``flush``), so callers may simply hold on to it.
        """
        request = self._coerce(request)
        report, span = self._open_job(request)
        adm = self._admit(request, report)
        if adm is None:
            return self._answered(report, span)
        self._enqueue(adm)
        return report

    def submit_anytime(
        self,
        request: JobRequest | dict,
        *,
        on_round: Any = None,
    ) -> JobReport:
        """Run one anytime/iterative job to its deadline, synchronously.

        The kernel must expose the anytime surface
        (:class:`~repro.serve.kernels.AnytimeServable`): a mutable
        solution state refined by one task round at a time.  Each round
        spawns the kernel's round plan as its own task group
        (``tenant/job#rN``), settles energy/quality from the round's
        trace window, appends to ``report.round_quality``, and invokes
        ``on_round`` with a :class:`RoundResult` — returning ``False``
        from the callback takes the current answer and stops (the
        "early take").  Iteration also stops when ``deadline_s`` of
        engine time elapses or the tenant's budget runs dry; the report
        always carries the best answer so far, never an error.

        Runs on the caller's thread (the gateway's service thread),
        serialized with :meth:`flush` rounds by construction.
        """
        request = self._coerce(request)
        report, span = self._open_job(request, anytime=True)
        adm = self._admit(request, report, anytime=True)
        if adm is not None:
            self._run_anytime(adm, on_round)
        return self._answered(report, span)

    def flush(self) -> list[JobReport]:
        """Execute one admission round on the shared engine.

        Steers every budgeted tenant's governor against its queued
        work, re-checks the cache at the ratio each job will actually
        be served at, spawns the remainder as per-job task groups in
        one batch, and settles reports/budgets from the round's trace
        window.  Returns the round's completed reports.
        """
        self._check_open()
        batch = self._take_round()
        if not batch:
            return []
        now = self._sched.engine.master_time
        self._pre_steer(batch, now)
        to_run: list[_Admitted] = []
        leaders: dict[tuple, _Admitted] = {}
        followers: list[tuple[_Admitted, _Admitted]] = []
        for adm in batch:
            self._dequeue(adm)
            effective = self._decide_ratio(adm)
            entry = self._cache_window(adm, effective)
            if entry is not None:
                self._serve_cached(adm.report, adm.state, entry)
                self._finish_latency(adm, now)
                self._obs_finish(adm.report)
                continue
            # In-round coalescing: identical work at the same served
            # ratio executes once; the leader is billed, followers ride
            # along for free (the batch-dedupe twin of the cache).
            work_key = (adm.kernel.name, adm.digest, _ratio_key(effective))
            leader = leaders.setdefault(work_key, adm)
            if leader is not adm:
                followers.append((adm, leader))
                continue
            self._spawn_job(adm, effective)
            to_run.append(adm)
        t_end = self._sched.taskwait() if to_run else now
        self._settle(to_run, t_end)
        self._settle_followers(followers, t_end)
        self._rounds += 1
        if self._m_rounds is not None:
            self._m_rounds.inc()
        return [adm.report for adm in batch]

    # -- introspection ---------------------------------------------------
    @property
    def scheduler(self) -> Scheduler:
        """The shared scheduler (observation only)."""
        return self._sched

    @property
    def data_plane_stats(self) -> dict | None:
        """The engine's zero-copy data-plane byte accounting (bytes
        shipped by reference vs copied, promotions), or ``None`` on
        engines without a data plane."""
        stats = getattr(self._sched.engine, "data_plane_stats", None)
        return stats.to_dict() if stats is not None else None

    def stats(self) -> dict:
        """Service-wide digest (the gateway's ``stats`` op)."""
        return {
            "tenants": {
                name: state.summary()
                for name, state in self._tenants.items()
            },
            "streams": {
                f"{tenant}/{stream}": ss.summary()
                for (tenant, stream), ss in self._streams.items()
            },
            "cache": self.cache.stats.to_dict(),
            "pending_jobs": self.pending_jobs,
            "rounds": self._rounds,
            "engine_time_s": self._sched.engine.master_time,
            "engine": str(self.config.engine),
            "policy": self._sched.policy.describe(),
            "data_plane": self.data_plane_stats,
        }

    def collect(self) -> None:
        """Refresh collect-on-scrape gauges from live service state."""
        m = self._metrics
        if m is None:
            return
        shard = self._shard_label
        m.gauge(
            "repro_pending_jobs",
            "Jobs admitted but not yet executed.",
            labels=("shard",),
        ).labels(shard).set(self.pending_jobs)
        m.gauge(
            "repro_engine_time_seconds",
            "The shared engine's own timeline.",
            labels=("shard",),
        ).labels(shard).set(self._sched.engine.master_time)
        ratio_g = m.gauge(
            "repro_tenant_ratio",
            "Served accurate-task ratio per tenant.",
            labels=("tenant", "shard"),
        )
        budget_g = m.gauge(
            "repro_tenant_budget_joules",
            "Lifetime energy budget per tenant (0 = unmetered).",
            labels=("tenant",),
        )
        for name, state in self._tenants.items():
            ratio_g.labels(name, shard).set(state.ratio)
            budget_g.labels(name).set(state.spec.budget_j or 0.0)
        lane_g = m.gauge(
            "repro_stream_inflight",
            "Frames admitted but not yet executed, per stream lane.",
            labels=("tenant", "stream"),
        )
        for (tenant, stream), ss in self._streams.items():
            lane_g.labels(tenant, stream).set(ss.inflight)
        plane = self.data_plane_stats
        if plane is not None:
            bytes_g = m.gauge(
                "repro_data_plane_bytes",
                "Data-plane payload bytes by path.",
                labels=("shard", "path"),
            )
            for path in (
                "bytes_referenced",
                "bytes_copied_in",
                "bytes_copied_out",
                "bytes_pickled",
            ):
                bytes_g.labels(shard, path.removeprefix("bytes_")).set(
                    plane[path]
                )
            m.gauge(
                "repro_data_plane_not_copied_frac",
                "Fraction of payload bytes moved by reference.",
                labels=("shard",),
            ).labels(shard).set(plane["bytes_not_copied_frac"])

    # -- trace export ------------------------------------------------------
    def write_trace(self, path: str | Path) -> Path:
        """Chrome-trace export of the serve run, events tagged with
        tenant/job/kernel ids (one timeline for the service).

        Covers the service's most recent
        :data:`~repro.serve.rounds.TRACE_TAIL` task executions: older
        segments are folded into the trace's totals at settlement.

        Run-level metadata — the shared-memory data plane's byte
        accounting, when the engine has one — rides along under the
        ``__run__`` meta key and lands in the trace's ``otherData``.
        """
        from ..sim.chrome_trace import write_chrome_trace

        meta = dict(self.job_meta)
        dp = self.data_plane_stats
        if dp is not None:
            meta["__run__"] = {"data_plane": dp}
        return write_chrome_trace(
            self._sched.engine.accounting.trace,
            path,
            group_meta=meta,
        )

    # -- lifecycle ---------------------------------------------------------
    def close(self):
        """Drain remaining rounds, finish the shared run, and return
        the canonical :class:`~repro.runtime.stats.RunReport`."""
        if self._closed:
            return self.run_report
        while self.pending_jobs:
            self.flush()
        self.run_report = self._sched.finish()
        self._closed = True
        return self.run_report

