"""Execution: one group executor under every job shape.

A job reaches the shared engine as a labelled task group, and there is
exactly one way to put a group on it and one way to bill it:

* :meth:`RoundsMixin._spawn_group` — ``job_meta`` entry, child span,
  ``init_group`` at the served ratio, one batched spawn;
* :meth:`RoundsMixin._settle_groups` — the barrier window's trace
  carved by group: busy seconds → Joules → ``TenantState.charge`` →
  energy counter → energy-model observation → descriptor recycling.

A batch round (``flush``: many ``tenant/job`` groups behind one
barrier) and an anytime job (``tenant/job#rN``: one group per
refinement round) both go through that pair, so the two shapes cannot
disagree on what a ratio costs.

Energy attribution: a job is billed its tasks' busy seconds times the
machine model's active-core power — the *marginal* cost of admitting
the job onto the shared machine.  Package-static power is a cost of
running the service at all and is reported on the service totals, not
to tenants.
"""

from __future__ import annotations

import time as _time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from ..runtime.scheduler import Scheduler
from ..runtime.task import ExecutionKind, TaskCost
from .admission import _Admitted
from .jobs import STREAM_MIN_RATIO, JobReport, JobRequest, RoundResult
from .kernels import ServableKernel
from .tenants import TenantState

__all__ = ["RoundsMixin", "TRACE_TAIL"]

#: Trace segments a service keeps once their rounds are settled: the
#: most recent task executions, which is what its chrome trace shows.
#: Everything older survives only as the trace's partial sums.
TRACE_TAIL = 4096


@dataclass
class _Group:
    """One labelled task group: what :meth:`RoundsMixin._spawn_group`
    puts on the engine and :meth:`RoundsMixin._settle_groups` bills."""

    label: str
    #: The tenant the group is charged to, and the job report credited
    #: with its task counts and Joules.  (Not the ``_Admitted`` itself:
    #: it points here, and a cycle would keep a round's plans and
    #: results alive until the cyclic collector runs.)
    state: TenantState
    report: JobReport
    tasks: list
    #: Compile-tier :class:`~repro.compiler.specialize.SpecializedPlan`
    #: when the group was specialized at spawn time (else ``None``).
    splan: Any = None
    #: The group's ``runtime.group`` / ``runtime.round`` span while it
    #: executes (``None`` when telemetry is off).
    span: Any = None
    # Filled in by settlement: this group's own Joules, and its
    # per-task results in plan order (dropped tasks: ``None``).
    energy_j: float = 0.0
    results: list = field(default_factory=list)


def _plan_cost(plan) -> TaskCost:
    """A representative per-task cost for one plan (model seeding)."""
    cost = plan.cost
    if callable(cost) and not isinstance(cost, TaskCost):
        cost = cost(*plan.args_list[0]) if plan.args_list else None
    return cost if isinstance(cost, TaskCost) else TaskCost(0.0)


class RoundsMixin:
    """The execution half of :class:`~repro.serve.TaskService`.

    Owns the shared scheduler, the trace-window cursor, ``job_meta``
    and the reference cache; leans on the admission half for the
    tenant table, the queues and the live job spans.
    """

    def _init_rounds(self, config, cache_capacity: int) -> None:
        # Descriptor recycling is only sound when nothing samples the
        # scheduler's task list after settlement; a service-level
        # governor does (cost priors), so it forces retention.
        self._sched = Scheduler(
            config=config,
            retain_tasks=config.governor is not None,
            metrics=self._metrics,
        )
        self._machine = self._sched.machine_model
        self._watts = self._machine.busy_extra_w() + self._machine.core_idle_w
        #: The compile tier (``RuntimeConfig.compile``): admission
        #: knows the per-tenant served ratio, so jobs are specialized
        #: here — the decision folded, variants inlined, bodies cached
        #: per ``(kernel, spec)`` across jobs and rounds.
        self._specializer = self._sched.specializer
        # Reference outputs are bounded like the result cache: a
        # long-lived service must not grow one full-size accurate
        # output per distinct argument digest forever.
        self._references: "OrderedDict[tuple, Any]" = OrderedDict()
        self._references_cap = max(cache_capacity, 8)
        #: group label -> {"tenant": ..., "job": ..., "kernel": ...}
        #: (chrome-trace annotation material).
        self.job_meta: dict[str, dict] = {}
        #: Trace position where the next settlement window starts.
        self._seg_cursor = 0

    # -- the group executor -------------------------------------------------
    def _seed_energy_model(self, state: TenantState, plan) -> None:
        """Seed a governed tenant's energy model from the analytic plan
        cost so the very first governor step has something to project
        with."""
        if state.governor is not None and state.e_acc_j is None:
            cost = _plan_cost(plan)
            ops = self._machine.ops_per_second
            state.e_acc_j = cost.accurate / ops * self._watts
            state.e_apx_j = cost.approximate / ops * self._watts

    def _served_ratio(self, request: JobRequest, state: TenantState):
        """The request's ratio, capped by the tenant's governor and
        raised to the tenant's tier floor."""
        return max(min(request.ratio, state.ratio), state.spec.ratio_floor)

    def _spawn_group(
        self,
        adm: _Admitted,
        label: str,
        ratio: float,
        *,
        span_name: str,
        meta: dict,
        splan=None,
    ) -> _Group:
        """Put ``adm.plan`` on the engine as one labelled task group.

        ``meta`` is the shape-specific part (stream/frame, round/rounds)
        of the group's ``job_meta`` entry and of its span's attributes.
        """
        request, plan = adm.request, adm.plan
        entry = self.job_meta[label] = {
            "tenant": request.tenant,
            "job": request.job_id,
            "kernel": adm.kernel.name,
            **meta,
        }
        span = None
        jspan = self._job_spans.get(request.job_id)
        if jspan is not None:
            span = jspan.child(span_name, label=label, **meta)
            entry["trace_id"] = jspan.trace_id
            entry["span_id"] = span.span_id
        self._sched.init_group(label, ratio)
        if splan is not None:
            entry["specialized"] = True
            entry["n_chunks"] = splan.n_chunks
            tasks = self._sched.spawn_specialized(splan, label=label)
        else:
            tasks = self._sched.spawn_many(
                plan.fn,
                plan.args_list,
                significance=plan.significance,
                approxfun=plan.approxfun,
                label=label,
                cost=plan.cost,
            )
        adm.group = _Group(label, adm.state, adm.report, tasks, splan, span)
        return adm.group

    def _window_busy(self) -> dict[tuple[str, Any], float]:
        """Per-(group, kind) busy seconds since the last window, and
        advance the window cursor."""
        trace = self._sched.engine.accounting.trace
        busy: dict[tuple[str, Any], float] = {}
        for seg in trace.since(self._seg_cursor):
            key = (seg.group, seg.kind)
            busy[key] = busy.get(key, 0.0) + seg.duration
        self._seg_cursor = trace.position
        return busy

    def _settle_groups(self, groups: list[_Group]) -> None:
        """Bill every group that ran behind the last barrier.

        Carves the barrier's trace window by group, charges each
        group's tenant, credits its report with the task counts and
        Joules, harvests the results onto the :class:`_Group`, folds
        the window into the tenants' energy models (one observation
        per tenant and kind per window), recycles the descriptors and
        folds the trace down to its last :data:`TRACE_TAIL` segments.
        """
        busy = self._window_busy()
        per_tenant: dict[TenantState, list] = {}
        for group in groups:
            label, splan = group.label, group.splan
            busy_acc = busy.get((label, ExecutionKind.ACCURATE), 0.0)
            busy_apx = busy.get((label, ExecutionKind.APPROXIMATE), 0.0)
            if splan is not None:
                # Specialized chunks all execute as forced-accurate
                # tasks; apportion the group's busy time by the plan's
                # per-kind work shares so the tenant's e_acc/e_apx
                # energy models stay calibrated.
                w_tot = splan.work_acc + splan.work_apx
                if w_tot > 0.0:
                    busy_tot = busy_acc + busy_apx
                    busy_acc = busy_tot * (splan.work_acc / w_tot)
                    busy_apx = busy_tot - busy_acc
                # Specialized groups run as a handful of chunk tasks;
                # report the *logical* task counts from the folded
                # decision vector, and scatter the chunk results back
                # to element order.
                tasks_total = splan.n_tasks
                accurate = splan.accurate
                approximate = splan.approximate
                dropped = splan.dropped
                group.results = splan.gather([t.result for t in group.tasks])
            else:
                record = self._sched.groups.get(label)
                tasks_total = record.spawned
                accurate = record.accurate_count
                approximate = record.approx_count
                dropped = record.dropped_count
                group.results = [t.result for t in group.tasks]
            energy_j = group.energy_j = (busy_acc + busy_apx) * self._watts
            state, report = group.state, group.report
            state.charge(energy_j)
            if self._m_energy is not None:
                self._m_energy.labels(report.tenant).inc(energy_j)
            report.tasks_total += tasks_total
            report.accurate += accurate
            report.approximate += approximate
            report.dropped += dropped
            report.energy_j += energy_j
            if group.span is not None:
                group.span.end(
                    self._spans,
                    tasks=tasks_total,
                    accurate=accurate,
                    approximate=approximate,
                    dropped=dropped,
                    energy_j=energy_j,
                )
            window = per_tenant.setdefault(state, [0.0, 0, 0.0, 0])
            window[0] += busy_acc
            window[1] += accurate
            window[2] += busy_apx
            # Dropped tasks cost (and would cost) nothing; fold them in
            # with the approximate basket so e_apx reflects "what a
            # degraded task costs" on this tenant's mix.
            window[3] += approximate + dropped

        for state, (acc_s, acc_n, apx_s, apx_n) in per_tenant.items():
            state.observe_energy("acc", acc_s, acc_n, self._watts)
            state.observe_energy("apx", apx_s, apx_n, self._watts)

        # Shallow-profiler landing: per-callee wall timings of every
        # profiled specialized body, windowed to this barrier and
        # written into the group's job_meta so the chrome trace carries
        # them.
        if self._specializer is not None and getattr(
            self._specializer, "profile", False
        ):
            from ..compiler.specialize import profile_snapshot

            prof_by_kernel: dict[str, dict] = {}
            for group in groups:
                if group.splan is None:
                    continue
                name = self.job_meta[group.label]["kernel"]
                if name not in prof_by_kernel:
                    prof_by_kernel[name] = profile_snapshot(
                        kernel=name, clear=True
                    )
                if prof_by_kernel[name]:
                    self.job_meta[group.label]["profile"] = (
                        prof_by_kernel[name]
                    )

        # Results are harvested: recycle the window's descriptors,
        # retire the labels (each is used once) and fold the billed
        # window out of the trace, so a long-lived service grows neither
        # one Task, nor one policy entry, nor one trace segment per
        # executed job.
        recycle = not self._sched.retains_tasks
        for group in groups:
            self._sched.retire_group(group.label)
            if recycle:
                self._sched.release_tasks(group.tasks)
                group.tasks = []
        if self._sched.governor is None:
            # (A run-level governor samples the trace from position 0
            # at its first tick: a governed service keeps all of it.)
            self._sched.engine.accounting.fold(keep=TRACE_TAIL)

    # -- batch rounds: the steps of flush() ---------------------------------
    def _pre_steer(self, batch: list[_Admitted], now: float) -> None:
        """Step every budgeted tenant's governor against its queue.

        The governor solve needs the tasks this round will issue to
        still count as "remaining", so it runs before spawn.
        """
        in_round: dict[str, int] = {}
        for adm in batch:
            in_round[adm.request.tenant] = (
                in_round.get(adm.request.tenant, 0) + adm.plan.n_tasks
            )
        for name, extra in in_round.items():
            state = self._tenants[name]
            if state.governor is not None:
                queued = sum(
                    a.plan.n_tasks for a in self._queues.get(name, ())
                )
                state.steer(now, queued + extra)

    def _decide_ratio(self, adm: _Admitted) -> float:
        """The ratio ``adm`` is served at this round."""
        state = adm.state
        effective = self._served_ratio(adm.request, state)
        lane = adm.stream_state
        if lane is not None and state.over_budget:
            # The streaming contract: an over-budget tenant's
            # frames degrade to the floor of their quality band,
            # they are never dropped mid-stream.
            effective = max(state.spec.ratio_floor, STREAM_MIN_RATIO)
            adm.report.detail = (
                f"over-budget: frame degraded to ratio "
                f"{effective:g}, not dropped"
            )
            lane.degraded += 1
            self._lane_count(self._m_stream_degraded, lane)
        adm.report.ratio_served = effective
        return effective

    def _cache_window(self, adm: _Admitted, effective: float):
        """The round's cache window: an entry at least as accurate
        as we would execute, and no more accurate than we would
        serve, answers the job for free.  The upper bound must
        cover ``effective`` too: a ratio floor above the request
        would otherwise make the band empty and re-execute
        identical re-submitted frames forever."""
        return self.cache.get_degraded(
            adm.kernel.name,
            adm.digest,
            max_ratio=max(adm.request.ratio, effective),
            min_ratio=effective,
        )

    def _spawn_job(self, adm: _Admitted, effective: float) -> None:
        request = adm.request
        meta = {}
        if request.stream is not None:
            # Chrome traces distinguish job shapes: stream frames
            # carry their lane and frame index in group_meta.
            meta = {"stream": request.stream, "frame": adm.report.frame}
        splan = None
        if self._specializer is not None:
            # The served ratio is decided here, so this is where
            # the compile tier folds the significance branch away;
            # a None return (unspecializable body) falls back to
            # the interpreted spawn path.
            splan = self._specializer.specialize_plan(
                adm.kernel.name,
                adm.plan,
                ratio=effective,
                n_chunks=self.config.n_workers,
            )
        self._spawn_group(
            adm,
            f"{request.tenant}/{request.job_id}",
            effective,
            span_name="runtime.group",
            meta=meta,
            splan=splan,
        )

    def _finish_latency(self, adm: _Admitted, t_end: float) -> None:
        adm.report.latency_s = max(0.0, t_end - adm.t_submit_engine)
        adm.report.wall_latency_s = max(
            0.0, _time.perf_counter() - adm.t_submit_wall
        )

    def _settle(self, ran: list[_Admitted], t_end: float) -> None:
        """Turn the round's billed groups into per-job outcomes."""
        self._settle_groups([adm.group for adm in ran])
        for adm in ran:
            group, report = adm.group, adm.report
            report.status = "executed"
            report.code = 200
            report.output = adm.kernel.combine(
                adm.request.args, group.results
            )
            if self.compute_quality:
                report.quality = adm.kernel.quality(
                    self._reference(
                        adm.kernel, adm.digest, adm.request.args
                    ),
                    report.output,
                )
            self._finish_latency(adm, t_end)
            adm.state.executed += 1
            self.cache.put(
                adm.kernel.name,
                adm.digest,
                report.ratio_served,
                report.output,
                quality=report.quality,
                energy_j=group.energy_j,
            )
            self._obs_finish(report)

    def _settle_followers(self, followers, t_end: float) -> None:
        """Answer coalesced jobs from their leader's execution."""
        for adm, leader in followers:
            led = leader.report
            report = adm.report
            report.status = "coalesced"
            report.code = 200
            report.ratio_served = led.ratio_served
            report.quality = led.quality
            report.output = led.output
            report.energy_j = 0.0
            report.detail = f"coalesced with {led.job_id}"
            self._finish_latency(adm, t_end)
            adm.state.coalesced += 1
            self._obs_finish(report)

    def _reference(
        self,
        kernel: ServableKernel,
        digest: str,
        args,
        anytime: bool = False,
    ):
        """LRU-cached accurate reference output for one argument set.

        Anytime references (the *converged* answer, not the one-shot
        batch reference) are cached under a distinct key — the two are
        different artifacts with different quality baselines.
        """
        key = (kernel.name, digest, "anytime") if anytime else (
            kernel.name, digest
        )
        ref = self._references.get(key)
        if ref is None:
            ref = self._references[key] = (
                kernel.anytime_reference(args)
                if anytime
                else kernel.reference(args)
            )
            while len(self._references) > self._references_cap:
                self._references.popitem(last=False)
        else:
            self._references.move_to_end(key)
        return ref

    # -- the anytime driver -------------------------------------------------
    def _run_anytime(self, adm: _Admitted, on_round) -> None:
        """The rounds of one admitted anytime job: state update,
        callback/deadline/budget stop, report accumulation."""
        sched = self._sched
        request, report, state = adm.request, adm.report, adm.state
        kernel = adm.kernel
        args = kernel.canonical_args(request.args)
        rounds = request.rounds
        adm.stamp(sched.engine.master_time)
        astate = kernel.anytime_state(args)
        reference = (
            self._reference(kernel, adm.digest, args, anytime=True)
            if self.compute_quality
            else None
        )
        t_end = adm.t_submit_engine
        metas = []
        for r in range(rounds):
            if r > 0 and state.over_budget:
                report.detail = f"budget exhausted after {r} rounds"
                break
            plan = adm.plan = kernel.anytime_plan(args, astate)
            if state.governor is not None:
                self._seed_energy_model(state, plan)
                state.steer(
                    sched.engine.master_time, plan.n_tasks * (rounds - r)
                )
            effective = self._served_ratio(request, state)
            label = f"{request.tenant}/{request.job_id}#r{r}"
            group = self._spawn_group(
                adm,
                label,
                effective,
                span_name="runtime.round",
                meta={"round": r, "rounds": rounds},
            )
            metas.append(self.job_meta[label])
            t_end = sched.taskwait()
            self._settle_groups([group])
            if self._m_anytime is not None:
                self._m_anytime.labels(request.tenant).inc()
            astate = kernel.anytime_update(args, astate, group.results)
            output = kernel.anytime_output(args, astate)
            quality = (
                kernel.quality(reference, output)
                if self.compute_quality
                else None
            )
            report.ratio_served = effective
            report.output = output
            report.quality = quality
            report.rounds_run = r + 1
            report.round_quality.append(quality)
            elapsed = t_end - adm.t_submit_engine
            if on_round is not None:
                verdict = on_round(
                    RoundResult(
                        round=r,
                        output=output,
                        quality=quality,
                        energy_j=group.energy_j,
                        elapsed_s=elapsed,
                        ratio=effective,
                    )
                )
                if verdict is False:
                    report.detail = f"early take after round {r + 1}"
                    break
            if (
                request.deadline_s is not None
                and elapsed >= request.deadline_s
                and r + 1 < rounds
            ):
                report.detail = (
                    f"deadline {request.deadline_s:g}s hit after "
                    f"round {r + 1}"
                )
                break
        report.status = "executed"
        report.code = 200
        self._finish_latency(adm, t_end)
        state.executed += 1
        # Stamp the final round count into every round's group_meta so
        # a chrome trace shows "round 2 of 3 run" without the span log.
        for meta in metas:
            meta["rounds_run"] = report.rounds_run
