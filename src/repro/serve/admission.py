"""Admission: who gets in, through which lane, and who is turned away.

One rejection ladder (:meth:`AdmissionMixin._admit`) stands in front of
every job shape — ``submit``, a stream frame and ``submit_anytime`` all
climb the same rungs and are refused through the same
:meth:`AdmissionMixin._reject`, so a status/code/detail triple and the
``TenantState.rejected`` bump exist once.  Admitted batch jobs and
stream frames wait in per-tenant queues drained round-robin
(:meth:`AdmissionMixin._take_round`); anytime jobs run at once on the
caller's thread and never queue.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Any

from ..obs import start_span
from ..runtime.errors import ConfigError, RegistryError
from .jobs import JobReport, JobRequest, StreamState
from .kernels import AnytimeServable, ServableKernel
from .tenants import TenantState

__all__ = ["AdmissionMixin"]


@dataclass
class _Admitted:
    """A job that cleared the ladder: what admission hands to execution
    (through a tenant queue for batch jobs and stream frames, directly
    for anytime jobs)."""

    request: JobRequest
    report: JobReport
    state: TenantState
    kernel: ServableKernel
    digest: str
    #: Streaming: the owning stream's admission state (else ``None``).
    stream_state: StreamState | None = None
    #: The task plan of the group to spawn next: the job's one plan
    #: (batch, stream frame) or the coming round's (anytime).
    plan: Any = None
    #: When the job started waiting (batch) or running (anytime), on
    #: the engine's timeline and on the host clock.
    t_submit_engine: float = 0.0
    t_submit_wall: float = 0.0
    #: The job's task group once its round has spawned it (a
    #: :class:`~repro.serve.rounds._Group`; ``None`` while queued, and
    #: for jobs answered by the round's cache window or a leader).
    group: Any = None

    def stamp(self, engine_time: float) -> None:
        """Start the job's latency clocks."""
        self.t_submit_engine = engine_time
        self.t_submit_wall = _time.perf_counter()


class AdmissionMixin:
    """The admission half of :class:`~repro.serve.TaskService`.

    Owns the tenant table, the per-tenant queues, the stream lanes and
    the live ``serve.job`` spans; leans on the service for the result
    cache, the kernel lookup, the engine clock and the energy-model
    seeding.
    """

    def _init_admission(self, specs) -> None:
        self._tenants: dict[str, TenantState] = {
            s.name: TenantState(s) for s in specs
        }
        self._queues: dict[str, list[_Admitted]] = {}
        #: ``(tenant, stream)`` -> admission state of that frame lane.
        self._streams: dict[tuple[str, str], StreamState] = {}
        self._rr: list[str] = []  # tenant scan order for round-taking
        self._rr_pos = 0  # persistent round-robin cursor into _rr
        #: Job ids currently queued (duplicate submissions would
        #: collide on the scheduler group label and corrupt per-job
        #: accounting, so they are rejected at admission).
        self._active_ids: set[str] = set()
        #: Live spans of queued jobs, keyed by job id; moved onto the
        #: recorder when the job's report turns terminal.
        self._job_spans: dict[str, Any] = {}

    # -- the envelope of one admission ------------------------------------
    def _open_job(self, request: JobRequest, **span_attrs):
        """A fresh report for ``request`` and — unless the job id is
        already live — its ``serve.job`` span.

        One serve-layer span per admission: root of the trace unless a
        gateway/router already opened one upstream.
        """
        report = JobReport(
            job_id=request.job_id,
            tenant=request.tenant,
            kernel=request.kernel,
            ratio_requested=request.ratio,
        )
        span = None
        if self._spans is not None and (
            request.job_id not in self._job_spans
        ):
            span = start_span("serve.job", request.trace_id,
                              request.parent_span, tenant=request.tenant,
                              job=request.job_id, kernel=request.kernel,
                              **span_attrs)
            request.trace_id = span.trace_id
            self._job_spans[request.job_id] = span
        return report, span

    def _answered(self, report: JobReport, span) -> JobReport:
        """``report`` turned terminal inside the admission call."""
        if span is not None:
            # Close only the span THIS admission opened — a
            # duplicate-id rejection must not steal the queued
            # original's live span.
            self._obs_finish(report)
        else:
            self._obs_count(report)
        return report

    def _obs_count(self, report: JobReport) -> None:
        """Count one terminal report."""
        if self._m_jobs is not None:
            self._m_jobs.labels(report.tenant, report.status).inc()
            if report.code == 200:
                self._m_latency.labels(report.tenant).observe(
                    report.wall_latency_s
                )

    def _obs_finish(self, report: JobReport) -> None:
        """Count one terminal report and close its serve-layer span."""
        span = self._job_spans.pop(report.job_id, None)
        if span is not None:
            report.trace_id = span.trace_id
            report.span_id = span.span_id
            span.end(
                self._spans, status=report.status, code=report.code
            )
        self._obs_count(report)

    # -- the ladder ---------------------------------------------------------
    def _reject(
        self,
        report: JobReport,
        state: TenantState | None,
        status: str,
        code: int,
        detail: str,
        lane: StreamState | None = None,
    ) -> None:
        """Refuse ``report``'s job.  Returns ``None`` so a rung reads
        ``return self._reject(...)``."""
        report.status = status
        report.code = code
        report.detail = detail
        if state is not None:
            state.rejected += 1
        if lane is not None:
            lane.rejected += 1
            self._lane_count(self._m_stream_rejected, lane)

    def _lane_count(self, counter, lane: StreamState) -> None:
        if counter is not None:
            counter.labels(lane.tenant, lane.stream).inc()

    def _admit(
        self, request: JobRequest, report: JobReport, *, anytime: bool = False
    ) -> _Admitted | None:
        """Climb the rejection ladder for one job of any shape.

        Returns the :class:`_Admitted` job, or ``None`` when ``report``
        already carries the answer — a rejection, or a cached result.
        ``anytime`` tells
        the ladder the job arrived through ``submit_anytime``: it then
        needs an anytime-capable kernel, and shedding never degrades it
        to a cached batch answer.
        """
        state = self._tenants.get(request.tenant)
        if state is None:
            return self._reject(
                report, None, "rejected-unknown-tenant", 404,
                f"unknown tenant {request.tenant!r}",
            )
        if request.job_id in self._active_ids:
            return self._reject(
                report, state, "rejected-duplicate-id", 409,
                f"job id {request.job_id!r} is already queued",
            )
        try:
            kernel = self._kernel(request.kernel)
        except (RegistryError, ConfigError) as exc:
            return self._reject(
                report, state, "rejected-unknown-kernel", 404, str(exc)
            )
        if anytime and not isinstance(kernel, AnytimeServable):
            return self._reject(
                report, state, "rejected-not-anytime", 400,
                f"kernel {kernel.name!r} has no anytime surface",
            )
        try:
            # Digest only: the shedding rungs below must stay cheap —
            # the full plan (input data and all) is built only for
            # admitted jobs.
            digest = kernel.digest(request.args)
        except ConfigError as exc:
            return self._reject(
                report, state, "rejected-bad-args", 400, str(exc)
            )
        if request.anytime and not anytime:
            return self._reject(
                report, state, "rejected-bad-shape", 400,
                "anytime jobs (rounds > 1 / deadline_s) go through "
                "submit_anytime()",
            )
        lane = None
        if request.stream is not None:
            lane = self._admit_frame(request, state, kernel, digest, report)
            if lane is None:
                return None
        elif state.over_budget or state.saturated:
            reason = "budget" if state.over_budget else "queue"
            if not anytime and state.spec.degrade_to_cache:
                # Load shedding: any same-work answer at or below the
                # requested quality beats burning energy or erroring.
                entry = self.cache.get_degraded(
                    kernel.name, digest, max_ratio=request.ratio
                )
                if entry is not None:
                    self._serve_cached(report, state, entry)
                    report.detail = f"over-{reason} -> cache"
                    return None
            return self._reject(
                report, state, f"rejected-{reason}", 429,
                f"tenant {state.spec.name!r} over energy budget"
                if reason == "budget"
                else f"tenant queue full ({state.spec.max_pending})",
            )
        return _Admitted(request, report, state, kernel, digest, lane)

    def _admit_frame(
        self, request, state: TenantState, kernel, digest, report
    ) -> StreamState | None:
        """The stream rungs: admit one frame of an ordered stream.

        Streams have their own admission lane (see :class:`StreamState`):
        out-of-order frames are refused 409-style, a full window pushes
        back 429-style *without consuming the frame index* (the producer
        retries the same frame, preserving order), and budget pressure
        degrades the served ratio in ``flush`` instead of shedding.
        A frame with a cached answer at or below the requested ratio is
        served from cache for free, whatever the budget state.  Returns
        the lane for a frame that must execute, ``None`` otherwise.
        """
        key = (request.tenant, request.stream)
        lane = self._streams.get(key)
        if lane is None:
            lane = self._streams[key] = StreamState(
                tenant=request.tenant, stream=request.stream
            )
        frame = (
            request.frame if request.frame is not None else lane.next_frame
        )
        report.stream = request.stream
        report.frame = frame
        if frame != lane.next_frame:
            return self._reject(
                report, state, "rejected-out-of-order", 409,
                f"stream {request.stream!r} expects frame "
                f"{lane.next_frame}, got {frame}",
                lane,
            )
        if lane.inflight >= lane.max_inflight:
            return self._reject(
                report, state, "rejected-stream-backpressure", 429,
                f"stream {request.stream!r} window full "
                f"({lane.max_inflight} frames in flight); retry frame "
                f"{frame}",
                lane,
            )
        # The frame is consumed from here on, executed or replayed.
        lane.next_frame = frame + 1
        lane.frames += 1
        self._lane_count(self._m_stream_frames, lane)
        # Identical frames replay from the cache at zero energy — the
        # re-submission path the regression test pins down.
        entry = self.cache.get_degraded(
            kernel.name,
            digest,
            max_ratio=max(request.ratio, state.spec.ratio_floor),
        )
        if entry is None:
            return lane
        self._serve_cached(report, state, entry)
        report.detail = f"stream frame {frame} replayed from cache"
        return None

    def _serve_cached(self, report, state: TenantState, entry) -> None:
        exact = entry.ratio >= report.ratio_requested
        report.status = "cached" if exact else "cached-degraded"
        report.code = 200
        report.ratio_served = entry.ratio
        report.quality = entry.quality
        report.output = entry.output
        report.energy_j = 0.0
        if exact:
            state.cached += 1
        else:
            state.cached_degraded += 1

    # -- the queues ---------------------------------------------------------
    def _enqueue(self, adm: _Admitted) -> None:
        """Plan an admitted batch job or stream frame and queue it."""
        adm.plan = adm.kernel.plan(adm.request.args)
        # Seed before the first governor step, which runs in the
        # round's pre-steer — ahead of any spawn.
        self._seed_energy_model(adm.state, adm.plan)
        adm.stamp(self._sched.engine.master_time)
        tenant = adm.request.tenant
        if tenant not in self._queues:
            self._queues[tenant] = []
            self._rr.append(tenant)
        self._queues[tenant].append(adm)
        self._active_ids.add(adm.request.job_id)
        if adm.stream_state is None:
            # Stream frames count against their stream's window, not
            # the tenant's batch queue cap.
            adm.state.pending += 1
        else:
            adm.stream_state.inflight += 1

    def _dequeue(self, adm: _Admitted) -> None:
        """Undo :meth:`_enqueue`'s occupancy once ``adm``'s round runs."""
        if adm.stream_state is None:
            adm.state.pending -= 1
        else:
            adm.stream_state.inflight -= 1
        self._active_ids.discard(adm.request.job_id)

    def _take_round(self) -> list[_Admitted]:
        """Up to ``max_batch`` queued jobs, round-robin across tenants.

        The cursor persists across rounds, so a ``max_batch`` that
        truncates mid-pass resumes at the next tenant instead of
        restarting the scan — no tenant is systematically favored for
        having registered first.
        """
        batch: list[_Admitted] = []
        names = self._rr
        if not names:
            return batch
        pos = self._rr_pos
        empty_streak = 0
        while len(batch) < self.max_batch and empty_streak < len(names):
            name = names[pos % len(names)]
            pos += 1
            queue = self._queues.get(name)
            if queue:
                batch.append(queue.pop(0))
                empty_streak = 0
            else:
                empty_streak += 1
        self._rr_pos = pos % len(names)
        return batch

    @property
    def tenants(self) -> dict[str, TenantState]:
        return self._tenants

    @property
    def pending_jobs(self) -> int:
        return sum(len(q) for q in self._queues.values())
