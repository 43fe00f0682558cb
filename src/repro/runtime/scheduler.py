"""The significance-aware scheduler: the runtime's front door.

:class:`Scheduler` ties together every substrate in the library — task
groups (``label``/``ratio``), dependence tracking (``in``/``out``),
the significance policy (GTB / LQH / ...), the execution engine
(simulated machine, real threads, or a process pool) and the energy
model — and exposes
the three operations the paper's compiler lowers pragmas to:

* ``spawn``     ≙ ``#pragma omp task ...``  (``tpc_call``)
* ``taskwait``  ≙ ``#pragma omp taskwait [label|on] [ratio]``
  (``tpc_wait_all`` / ``tpc_wait_group``)
* ``init_group``≙ ``tpc_init_group`` (per-group accurate-task ratio)

A scheduler instance executes one program run and then yields a
:class:`~repro.runtime.stats.RunReport` via :meth:`finish`.
"""

from __future__ import annotations

from typing import Any, Callable

from ..config import RuntimeConfig
from ..energy.cost import CostModel
from ..energy.machine_model import MachineModel
from .accounting import build_run_report
from .dependencies import DependenceTracker
from .engine import ExecutionBackend
from .errors import SchedulerError
from .groups import GroupRegistry
from .policies.base import Policy
from .stats import RunReport
from .task import Task, TaskCost, TaskState, ref, task_slab

__all__ = ["Scheduler"]

#: Sentinel distinguishing "no group cached" from the valid label None.
_NO_GROUP = object()


class Scheduler:
    """One run of the significance-aware runtime.

    Parameters
    ----------
    config:
        A :class:`~repro.config.RuntimeConfig` describing the whole
        instantiation.  The remaining keywords are per-field overrides
        (and work standalone, building an implicit config), so
        ``Scheduler(policy="gtb:buffer_size=16", engine="threaded")``
        and ``Scheduler(RuntimeConfig(...))`` are equivalent fronts.
    policy:
        Accurate/approximate decision policy — a registry spec string
        (``"gtb"``, ``"gtb:buffer_size=16"``, ``"lqh"``, ``"oracle"``)
        or a :class:`Policy` instance; defaults to the significance-
        agnostic baseline (everything accurate).
    n_workers:
        Worker cores; the paper's evaluation uses 16.
    machine:
        Machine performance/power model spec or instance; defaults to
        the Xeon E5-2650 model resized to ``n_workers`` cores.
    cost_model:
        Task-duration strategy spec or instance (default ``"hybrid"``:
        analytic when tasks carry costs, measured wall time otherwise).
    engine:
        ``"simulated"`` (default), ``"threaded"``, ``"process"``,
        ``"sequential"``, or an :class:`~repro.runtime.engine
        .ExecutionBackend` instance.
    governor:
        Optional online energy controller
        (``"governor:budget_j=1.2,interval=0.001"`` or an
        :class:`~repro.tuning.governor.EnergyBudgetGovernor`
        instance); it observes periodic energy/quality feedback and
        adjusts the effective ratio / DVFS state while the run
        executes.
    retain_tasks:
        Keyword-only.  When False the scheduler does not keep spawned
        descriptors on :attr:`tasks`, and :meth:`release_tasks` may
        recycle them through the process-wide
        :class:`~repro.runtime.task.TaskSlab` once their results are
        harvested — the long-lived service path.  Default True.
    """

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        n_workers: int | None = None,
        machine: MachineModel | str | None = None,
        cost_model: CostModel | str | None = None,
        engine: str | ExecutionBackend | None = None,
        policy: Policy | str | None = None,
        governor: Any = None,
        *,
        retain_tasks: bool = True,
        metrics: Any = None,
    ) -> None:
        if config is not None and not isinstance(config, RuntimeConfig):
            raise SchedulerError(
                "Scheduler's first argument is a RuntimeConfig, got "
                f"{type(config).__name__}; pass a policy as policy=..."
            )

        cfg = config if config is not None else RuntimeConfig()
        overrides = {
            name: value
            for name, value in (
                ("policy", policy),
                ("n_workers", n_workers),
                ("machine", machine),
                ("cost_model", cost_model),
                ("engine", engine),
                ("governor", governor),
            )
            if value is not None
        }
        if overrides:
            cfg = cfg.replace(**overrides)
        self.config = cfg

        self.policy = cfg.build_policy()
        self.machine_model = cfg.build_machine()
        self.cost_model = cfg.build_cost_model()
        self.groups = GroupRegistry()
        self.deps = DependenceTracker()
        self._tasks: list[Task] = []
        #: When False the scheduler keeps no reference to spawned tasks
        #: (``self.tasks`` stays empty) and callers may recycle their
        #: descriptors via :meth:`release_tasks` after harvesting
        #: results — the long-lived serve path, where retaining every
        #: descriptor for the process lifetime would be an unbounded
        #: leak.  Must stay True when anything samples ``tasks`` after
        #: the fact (the governor's cost priors do).
        self._retain_tasks = retain_tasks
        self._finished = False
        self.report: RunReport | None = None
        #: O(1) material for the global barrier predicate (evaluated
        #: once per simulation event).  Two counters rather than one so
        #: each has a single writer — ``_spawned_total`` is only ever
        #: touched by the master thread (spawn), ``_completed_total``
        #: only by the execution side (_on_task_finished, which the
        #: threaded engine serializes under its lock) — keeping the
        #: ThreadedEngine free of read-modify-write races.
        self._spawned_total = 0
        self._completed_total = 0
        #: Tasks released toward the workers (master-side writer only);
        #: the stall handler compares before/after a flush instead of
        #: scanning task states.
        self._issued_total = 0
        # Spawn-path decision tables: the policy's constant per-spawn
        # overhead (None -> per-task method call) and a one-entry group
        # lookup cache (task streams overwhelmingly repeat labels).
        # The cache is master-thread-only state: spawn() is its sole
        # user; worker-side callbacks go through the registry directly.
        # A miss is also what marks the group live for the next barrier
        # (GroupRegistry.spawning), so barriers that close epochs drop
        # the entry.
        self._spawn_overhead_const = self.policy.spawn_overhead_const
        self._group_label: Any = _NO_GROUP
        self._group_rec = None

        #: Telemetry handles: populated when a caller wires a
        #: :class:`~repro.obs.MetricsRegistry` down (the serve layer
        #: passes its own so scheduler counters land beside job
        #: metrics) and observability is enabled; ``None`` otherwise.
        #: The per-task paths (spawn/issue/finish) stay telemetry-free
        #: either way: the counters are fed *deltas* of the inline
        #: totals above at each barrier (:meth:`_obs_sync`), so the
        #: whole plane costs one sync per taskwait, not one increment
        #: per task.
        self._m_spawned = None
        self._m_completed = None
        self._m_issued = None
        self._m_barriers = None
        self._m_barrier_groups = None
        self._obs_spawned_seen = 0
        self._obs_completed_seen = 0
        self._obs_issued_seen = 0
        if metrics is not None:
            from ..obs import obs_enabled

            if obs_enabled():
                self._m_spawned = metrics.counter(
                    "repro_sched_tasks_spawned_total",
                    "Tasks spawned into the scheduler.",
                )
                self._m_completed = metrics.counter(
                    "repro_sched_tasks_completed_total",
                    "Tasks retired by the engine.",
                )
                self._m_issued = metrics.counter(
                    "repro_sched_tasks_issued_total",
                    "Tasks released toward worker queues.",
                )
                self._m_barriers = metrics.counter(
                    "repro_sched_barriers_total",
                    "taskwait barriers executed.",
                )
                self._m_barrier_groups = metrics.counter(
                    "repro_sched_barrier_groups_total",
                    "Task groups visited by taskwait barriers (per "
                    "barrier: divide by repro_sched_barriers_total; a "
                    "figure that grows with service age means barriers "
                    "are paying for settled jobs).",
                )

        self.policy.attach(self)
        self.engine: ExecutionBackend = cfg.build_engine(
            self.machine_model,
            self.cost_model,
            self.policy,
            self._on_task_finished,
            self._on_stall,
        )
        #: Optional online energy controller; binding installs its
        #: periodic tick on the engine timeline.
        self.governor = cfg.build_governor()
        if self.governor is not None:
            self.governor.bind(self)
            if metrics is not None and self._m_spawned is not None:
                self.governor.obs_bind(metrics, scope="_run")
        #: Optional compile tier (``RuntimeConfig.compile``): a
        #: :class:`~repro.compiler.specialize.KernelSpecializer` when
        #: the config says ``"specialize"``, else ``None``.  Kernel
        #: drivers branch on it to fold the significance decision and
        #: spawn compiled chunk bodies via :meth:`spawn_specialized`.
        self.specializer = cfg.build_compile()

    # ------------------------------------------------------------------
    # Program-facing operations (the pragma lowerings)
    # ------------------------------------------------------------------
    def init_group(self, label: str, ratio: float = 1.0):
        """``tpc_init_group``: create a group and set its accurate ratio."""
        return self.groups.init_group(label, ratio)

    def _group_for(self, label: str | None):
        """Group lookup through the one-entry spawn cache.

        Master-thread only (see ``__init__``): calling this from an
        engine callback would race the cache under the threaded engine.
        """
        if label == self._group_label:
            return self._group_rec
        rec = self.groups.spawning(label)
        self._group_label = label
        self._group_rec = rec
        return rec

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        significance: float = 1.0,
        approxfun: Callable[..., Any] | None = None,
        label: str | None = None,
        in_: tuple | list = (),
        out: tuple | list = (),
        cost: TaskCost | None = None,
        **kwargs: Any,
    ) -> Task:
        """Create one task (``#pragma omp task``) and hand it to the
        policy/engine.  Returns the task descriptor.

        ``in_``/``out`` accept raw objects or :class:`DataRef`; raw
        objects are converted with :func:`repro.runtime.task.ref`.
        """
        if self._finished:
            raise SchedulerError("scheduler already finished")
        task = task_slab().acquire(
            fn,
            args,
            kwargs,
            significance,
            approxfun,
            label,
            tuple(ref(o) for o in in_) if in_ else (),
            tuple(ref(o) for o in out) if out else (),
            cost,
        )
        group = self._group_for(label)
        task.group_seq = group.spawned
        group.spawned += 1
        self._spawned_total += 1

        engine = self.engine
        task.t_created = engine.master_time
        overhead = self._spawn_overhead_const
        engine.master_charge(
            self.policy.spawn_overhead(task) if overhead is None else overhead
        )
        self.deps.register(task)
        if self._retain_tasks:
            self._tasks.append(task)

        if not self.policy.on_spawn(task):
            self.issue(task)
        return task

    def spawn_many(
        self,
        fn: Callable[..., Any],
        args_list: Any,
        *,
        significance: float | Callable[..., float] = 1.0,
        approxfun: Callable[..., Any] | None = None,
        label: str | None = None,
        in_: Any = (),
        out: Any = (),
        cost: TaskCost | Callable[..., TaskCost] | None = None,
        kwargs: dict | None = None,
    ) -> list[Task]:
        """Batched :meth:`spawn`: one call for a whole iteration space.

        ``args_list`` yields one positional-argument tuple per task
        (bare non-tuple elements are wrapped).  ``significance``,
        ``in_``, ``out`` and ``cost`` are either constants applied to
        every task or callables evaluated per element over its
        arguments (positional plus the shared ``kwargs``) — the same
        clause convention as :func:`repro.api.sig_task`.

        The batch path amortizes the per-task spawn costs the bench
        probes identified as dominant on the master timeline: one group
        lookup, one policy classification pass
        (:meth:`~repro.runtime.policies.base.Policy.on_spawn_many`),
        one master-overhead charge, one dependence-tracker pass, and
        one engine admission
        (:meth:`~repro.runtime.engine.Engine.enqueue_many` — a single
        simulation event instead of one per task).  All tasks in the
        batch share one creation timestamp, as befits a single runtime
        call.
        """
        if self._finished:
            raise SchedulerError("scheduler already finished")
        sig_fn = significance if callable(significance) else None
        cost_fn = (
            cost
            if callable(cost) and not isinstance(cost, TaskCost)
            else None
        )
        in_fn = in_ if callable(in_) else None
        out_fn = out if callable(out) else None
        # Constant clauses resolve to one shared tuple up front.
        const_ins = () if in_fn else tuple(ref(o) for o in (in_ or ()))
        const_outs = () if out_fn else tuple(ref(o) for o in (out or ()))
        kw = kwargs if kwargs is not None else {}

        tasks: list[Task] = []
        has_deps = bool(const_ins or const_outs)
        slab = task_slab()
        for args in args_list:
            if not isinstance(args, tuple):
                args = (args,)
            task = slab.acquire(
                fn,
                args,
                kw,
                sig_fn(*args, **kw) if sig_fn else significance,
                approxfun,
                label,
                (
                    tuple(ref(o) for o in in_fn(*args, **kw))
                    if in_fn
                    else const_ins
                ),
                (
                    tuple(ref(o) for o in out_fn(*args, **kw))
                    if out_fn
                    else const_outs
                ),
                cost_fn(*args, **kw) if cost_fn else cost,
            )
            if task.ins or task.outs:
                has_deps = True
            tasks.append(task)
        n = len(tasks)
        if n == 0:
            return tasks

        group = self._group_for(label)
        seq = group.spawned
        for i, task in enumerate(tasks):
            task.group_seq = seq + i
        group.spawned += n
        self._spawned_total += n

        engine = self.engine
        t_created = engine.master_time
        for task in tasks:
            task.t_created = t_created
        overhead = self._spawn_overhead_const
        engine.master_charge(
            overhead * n
            if overhead is not None
            else sum(self.policy.spawn_overhead(t) for t in tasks)
        )
        if has_deps:
            self.deps.register_many(tasks)
        else:
            self.deps.count_roots(n)
        if self._retain_tasks:
            self._tasks.extend(tasks)

        to_issue = self.policy.on_spawn_many(tasks)
        if to_issue:
            self.issue_many(to_issue)
        return tasks

    def spawn_specialized(self, plan: Any, *, label: str | None = None):
        """Spawn a compile-tier :class:`SpecializedPlan`'s chunk tasks.

        Each chunk is one forced-accurate task (``significance=1.0``,
        so every buffering policy issues it as-is — the significance
        decision was already folded into the plan) running a compiled
        branch-free body over its members; the chunk's
        :class:`~repro.runtime.task.TaskCost` carries the summed
        member work, so energy/time accounting matches the
        interpreted spawn path.  Returns the chunk tasks in plan
        order — exactly what ``plan.gather`` expects.
        """
        tasks: list[Task] = []
        for batch in plan.batches:
            costs = batch.costs
            tasks.extend(
                self.spawn_many(
                    batch.body,
                    batch.args_list,
                    significance=1.0,
                    label=label,
                    cost=lambda members, cid, _costs=costs: _costs[cid],
                )
            )
        return tasks

    def taskwait(
        self,
        label: str | None = None,
        on: Any | None = None,
        ratio: float | None = None,
    ) -> float:
        """``#pragma omp taskwait [label(...)] [on(...)] [ratio(...)]``.

        Returns the (virtual) time at which the barrier completed.
        """
        if self._finished:
            raise SchedulerError("scheduler already finished")
        if ratio is not None:
            if label is not None:
                self.groups.get(label).set_ratio(ratio)
            else:
                self.groups.set_ratio_all(ratio)

        if on is not None:
            # Wait on a data object: flush everything (conservative —
            # any buffered task might affect the object), then wait for
            # the tasks currently known to touch it.
            self.policy.on_barrier(None)
            waiters = list(self.deps.waiters_on(ref(on)))

            def predicate() -> bool:
                return all(
                    t.state is TaskState.FINISHED for t in waiters
                )

            desc = f"taskwait on({ref(on)!r})"
        elif label is not None:
            self.policy.on_barrier(label)
            group = self.groups.get(label)

            def predicate() -> bool:
                return group.outstanding == 0

            desc = f"taskwait label({label})"
        else:
            self.policy.on_barrier(None)

            def predicate() -> bool:
                # O(1) equivalent of ``groups.outstanding() == 0``:
                # every spawn/finish maintains the two counters.
                return self._completed_total == self._spawned_total

            desc = "taskwait (global)"

        self.engine.master_charge(self.policy.barrier_overhead(label))
        t = self.engine.run_until(predicate, desc)

        # Barrier epochs delimit phases for the Table 2 statistics.  A
        # global barrier closes only the groups spawned into since
        # their last one, so its cost does not grow with the number of
        # groups the run has ever created.
        closed = 0
        if on is None:
            closed = self.groups.close_epochs(label)
            self._group_label = _NO_GROUP
        if self._m_barriers is not None:
            self._m_barriers.inc()
            self._obs_sync(closed)
        return t

    def _obs_sync(self, groups_closed: int) -> None:
        """Feed the task counters the deltas of the inline totals, and
        the barrier-groups counter the barrier's own visit count.

        Runs on the master thread after a barrier's ``run_until``
        returned, so ``_completed_total`` (worker-side writer) is
        quiescent.  Batching here keeps spawn/issue/finish — the
        per-task hot paths — free of any telemetry cost.
        """
        d = self._spawned_total - self._obs_spawned_seen
        if d:
            self._m_spawned.inc(d)
            self._obs_spawned_seen = self._spawned_total
        d = self._completed_total - self._obs_completed_seen
        if d:
            self._m_completed.inc(d)
            self._obs_completed_seen = self._completed_total
        d = self._issued_total - self._obs_issued_seen
        if d:
            self._m_issued.inc(d)
            self._obs_issued_seen = self._issued_total
        if groups_closed:
            self._m_barrier_groups.inc(groups_closed)

    # ------------------------------------------------------------------
    # Controller-facing introspection (the governor's observation API)
    # ------------------------------------------------------------------
    @property
    def outstanding_tasks(self) -> int:
        """Tasks spawned but not yet finished — a controller's
        "remaining work" universe (tasks not yet spawned are invisible
        until they arrive)."""
        return self._spawned_total - self._completed_total

    @property
    def tasks(self) -> list[Task]:
        """Every task spawned so far, in spawn order (read-only: treat
        the list and the tasks as observation material).  Empty when
        the scheduler was built with ``retain_tasks=False``."""
        return self._tasks

    @property
    def retains_tasks(self) -> bool:
        """Whether spawned descriptors are kept on :attr:`tasks`."""
        return self._retain_tasks

    def release_tasks(self, tasks: list[Task]) -> int:
        """Recycle finished task descriptors through the process slab.

        Only legal on a ``retain_tasks=False`` scheduler (otherwise the
        descriptors are still reachable through :attr:`tasks` and
        recycling would corrupt observation material).  Callers must
        have harvested ``task.result`` first; returns the number of
        slots actually recycled.
        """
        if self._retain_tasks:
            raise SchedulerError(
                "release_tasks requires retain_tasks=False; this "
                "scheduler still holds every descriptor on .tasks"
            )
        return task_slab().release_many(tasks)

    def retire_group(self, label: str | None) -> None:
        """Declare that group ``label`` will take no more tasks.

        The long-lived service path spawns one group per job; the
        policy's per-group state (LQH's per-worker histograms) would
        otherwise grow with every job ever served.  The group's record
        and its per-epoch tallies stay: they are the final
        :class:`RunReport`'s group summary.  Spawning into a retired
        group again is legal and starts its policy state afresh.
        """
        if self.groups.get(label).outstanding:
            raise SchedulerError(
                f"cannot retire group {label!r}: it has outstanding tasks"
            )
        self.policy.on_group_retired(label)

    # ------------------------------------------------------------------
    # Policy-facing operations
    # ------------------------------------------------------------------
    def issue(self, task: Task, at_creation_time: bool = False) -> None:
        """Release a task from the master/policy toward the workers.

        Dependence-free tasks enter the queue fabric immediately; others
        park in ``PENDING`` until their predecessors retire.
        """
        if task.unmet_deps == 0:
            # Mark released immediately; the engine's enqueue event will
            # place it on a concrete worker queue at its virtual time.
            task.state = TaskState.QUEUED
            self._issued_total += 1
            at = task.t_created if at_creation_time else None
            self.engine.enqueue(task, at=at)
        else:
            task.state = TaskState.PENDING

    def issue_many(self, tasks: list[Task]) -> None:
        """Batched :meth:`issue`: one engine admission for all ready
        tasks (used by ``spawn_many`` and the GTB flush path)."""
        ready: list[Task] = []
        for task in tasks:
            if task.unmet_deps == 0:
                task.state = TaskState.QUEUED
                ready.append(task)
            else:
                task.state = TaskState.PENDING
        if ready:
            self._issued_total += len(ready)
            self.engine.enqueue_many(ready)

    def charge_master(self, work_units: float) -> None:
        """Account master-side policy work (e.g. the GTB sort)."""
        self.engine.master_charge(work_units)

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------
    def _on_task_finished(self, task: Task, now: float) -> None:
        # No _group_for here: this callback runs on worker threads under
        # the threaded engine, and the spawn cache is master-only state.
        self.groups.get(task.group).record(task)
        self._completed_total += 1
        if task.successors:
            for succ in self.deps.retire(task):
                if succ.state is TaskState.PENDING:
                    self.engine.enqueue(succ, at=now)
                # BUFFERED successors stay with the policy until flushed.

    def _on_stall(self) -> bool:
        """Last-resort unblocking: flush every policy buffer.

        Returns True when the flush produced runnable work.  This guards
        against programs that wait on group A while group B's buffered
        tasks hold A's dependences.
        """
        before = self._issued_total
        self.policy.on_barrier(None)
        return self._issued_total > before

    # ------------------------------------------------------------------
    # Run completion
    # ------------------------------------------------------------------
    def finish(self) -> RunReport:
        """Global barrier + engine shutdown; build the run report."""
        if self._finished:
            raise SchedulerError("scheduler already finished")
        self.taskwait()  # global barrier (flushes all buffers)
        trace, makespan = self.engine.finish()
        self._finished = True

        # One report schema for every backend: assembly lives in the
        # shared accounting module, not in any engine.
        self.report = build_run_report(
            policy_name=self.policy.describe(),
            n_workers=self.engine.n_workers,
            trace=trace,
            makespan=makespan,
            machine=self.machine_model,
            groups=self.groups,
            queue_stats=self.engine.queue_stats,
            dep_stats=self.deps.stats,
            tasks_total=self._spawned_total,
            dvfs_epochs=self.engine.accounting.dvfs_epochs,
        )
        # The policy and the governor point back here, as did the
        # engine's callbacks until its finish() dropped them: cut the
        # cycles so reference counting frees the run (its tasks, their
        # arguments, the trace) as soon as the caller lets go of it.
        self.policy.detach()
        if self.governor is not None:
            self.governor.unbind()
        return self.report

    # ------------------------------------------------------------------
    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Like Runtime.__exit__, keep the run's outcome on self.report
        # rather than dropping the return value of finish().
        if exc_type is None and not self._finished:
            self.finish()
