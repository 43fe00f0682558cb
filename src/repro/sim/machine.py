"""The discrete-event simulated multicore machine.

This is the substitution for the paper's 16-core Xeon testbed (DESIGN.md
section 2).  The *runtime logic* — per-worker queues, round-robin issue,
work stealing, policy decisions, dependence release — is the production
code from :mod:`repro.runtime`; only the passage of time is virtual:

* the **master** timeline advances as the program spawns tasks (task
  creation cost, policy buffering cost, GTB sort cost);
* **workers** are simulated cores that acquire tasks from the queue
  fabric, execute the *real* Python body (so program outputs and quality
  metrics are genuine), and occupy virtual time according to the cost
  model;
* a :class:`~repro.sim.events.EventQueue` orders everything
  deterministically.

Scheduling discipline (paper section 3): tasks are distributed round-
robin to per-worker FIFO queues; workers take the oldest task from their
own queue and steal the oldest task from a victim when empty.

Hot-path design (measured by ``repro.bench``; the event loop dominates
simulated runs):

* machine events carry their operand in the event ``payload`` and a
  two-argument bound-method ``action(payload, now)`` — no per-event
  closure allocation;
* wake-ups are *coalesced*: only idle workers are woken, at most one
  pending ``tryrun`` event per worker (``_wake_pending``), instead of
  one event per (enqueue × worker);
* host wall-clock measurement around task bodies is skipped whenever
  the cost model declares it unnecessary
  (:meth:`~repro.energy.cost.CostModel.wants_measurement`).
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, Callable

from ..runtime.errors import SchedulerError
from ..runtime.queues import WorkerQueues
from ..runtime.task import Task, TaskState
from .clock import VirtualClock
from .events import EventQueue

if TYPE_CHECKING:  # pragma: no cover
    from ..energy.cost import CostModel
    from ..energy.machine_model import MachineModel
    from ..runtime.accounting import AccountingCore
    from ..runtime.policies.base import Policy

__all__ = ["SimulatedMachine"]


class SimulatedMachine:
    """Event-driven execution of the task stream on N virtual cores."""

    __slots__ = (
        "machine_model",
        "cost_model",
        "policy",
        "on_task_finished",
        "stall_handler",
        "clock",
        "events",
        "queues",
        "accounting",
        "trace",
        "busy",
        "master_time",
        "_idle",
        "_wake_pending",
        "_inv_ops",
        "_decide",
        "_decide_overhead",
        "_decide_overhead_const",
        "_wants_measurement",
        "_nominal_model",
        "_tick_interval",
        "_tick_cb",
        "_tick_armed",
    )

    def __init__(
        self,
        n_workers: int,
        machine_model: "MachineModel",
        cost_model: "CostModel",
        policy: "Policy",
        on_task_finished: Callable[[Task, float], None],
        stall_handler: Callable[[], bool] | None = None,
        accounting: "AccountingCore | None" = None,
    ) -> None:
        if n_workers > machine_model.n_cores:
            raise SchedulerError(
                f"{n_workers} workers exceed the machine's "
                f"{machine_model.n_cores} cores"
            )
        self.machine_model = machine_model
        self.cost_model = cost_model
        self.policy = policy
        self.on_task_finished = on_task_finished
        self.stall_handler = stall_handler

        self.clock = VirtualClock()
        self.events = EventQueue()
        self.queues = WorkerQueues(n_workers)
        #: All trace/host/master bookkeeping goes through the shared
        #: accounting core (one per run; the owning engine passes its
        #: own so engine and machine agree on the single trace).
        if accounting is None:
            # Deferred import: sim.machine sits below runtime.accounting
            # in the import graph (accounting imports sim.trace).
            from ..runtime.accounting import AccountingCore

            accounting = AccountingCore(n_workers)
        self.accounting = accounting
        self.trace = accounting.trace
        self.busy: list[bool] = [False] * n_workers
        #: The master thread's private timeline (spawning, buffering).
        self.master_time = 0.0
        #: Workers with no task in flight (wake candidates on enqueue).
        self._idle: set[int] = set(range(n_workers))
        #: Per-worker "a tryrun event is already queued" latch.
        self._wake_pending: list[bool] = [False] * n_workers

        # Precomputed hot-path constants: work-units -> seconds factor,
        # the policy's decision table (bound methods + constant
        # overheads) and the cost model's measurement requirement.
        self._inv_ops = 1.0 / machine_model.ops_per_second
        self._decide = policy.decide
        self._decide_overhead = policy.decide_overhead
        self._decide_overhead_const = policy.decide_overhead_const
        self._wants_measurement = cost_model.wants_measurement
        #: DVFS baseline: factors always scale the *nominal* model, so
        #: repeated switches never compound.
        self._nominal_model = machine_model
        # Periodic-tick state (the governor's clock): interval, bound
        # callback, and an "an event is queued" latch mirroring
        # _wake_pending's coalescing discipline.
        self._tick_interval = 0.0
        self._tick_cb: Callable[[float], None] | None = None
        self._tick_armed = False

        policy.make_worker_state(n_workers)

    # -- master-side operations ---------------------------------------
    def master_charge(self, work_units: float) -> None:
        """Advance the master timeline by ``work_units`` of bookkeeping."""
        dt = work_units * self._inv_ops
        self.master_time += dt
        self.accounting.add_master_busy(dt)

    def enqueue(self, task: Task, at: float | None = None) -> None:
        """Schedule a ready task to enter the queue fabric at ``at``.

        Defaults to the master's current time (master-issued tasks);
        dependence-released tasks pass their releaser's finish time.
        """
        t = self.master_time if at is None else at
        self.events.push(t, self._do_enqueue, tag="enqueue", payload=task)
        self._arm_tick(t)

    def enqueue_many(self, tasks: list[Task], at: float | None = None) -> None:
        """Batched :meth:`enqueue`: one event admits a whole task batch.

        The batched-spawn fast path funnels here — a single heap push
        and a single wake-up pass replace one event per task, which is
        the dominant per-spawn cost on fine-grained streams.
        """
        t = self.master_time if at is None else at
        self.events.push(
            t, self._do_enqueue_many, tag="enqueue_many", payload=tasks
        )
        self._arm_tick(t)

    # -- periodic ticks and DVFS (the governor's actuation surface) -----
    def set_tick(
        self, interval: float, callback: Callable[[float], None]
    ) -> None:
        """Install a periodic callback on the virtual timeline.

        ``callback(now)`` fires every ``interval`` virtual seconds while
        the machine has pending events; it re-arms lazily from the next
        enqueue when the event queue drains, so ticks never keep an
        otherwise-finished simulation alive (and never mask a genuine
        stall from :meth:`run_until`).
        """
        if interval <= 0:
            raise SchedulerError(
                f"tick interval must be > 0, got {interval}"
            )
        self._tick_interval = interval
        self._tick_cb = callback
        self._arm_tick(self.master_time)

    def _arm_tick(self, now: float) -> None:
        if self._tick_cb is not None and not self._tick_armed:
            self._tick_armed = True
            self.events.push(
                now + self._tick_interval,
                self._fire_tick,
                tag="tick",
                payload=None,
            )

    def _fire_tick(self, _payload, now: float) -> None:
        self._tick_armed = False
        cb = self._tick_cb
        if cb is not None:
            cb(now)
        # Re-arm only while real work remains queued: a tick must never
        # be the event that keeps the queue non-empty.
        if self.events:
            self._arm_tick(now)

    def set_frequency_factor(self, factor: float, at: float | None = None) -> None:
        """Online DVFS: run at ``factor`` × nominal frequency from ``at``.

        Swaps the active machine model for the nominal model rescaled by
        ``factor`` (throughput ~f, dynamic power ~f^3 — see
        :meth:`~repro.energy.machine_model.MachineModel.scaled_frequency`)
        so subsequent task durations and master charges stretch
        accordingly, and records a DVFS epoch so energy integration
        bills the new power point.  Tasks already in flight keep their
        committed durations (frequency transitions do not retime
        issued work, as on real hardware with in-flight instructions).
        """
        if factor <= 0:
            raise SchedulerError(
                f"frequency factor must be > 0: {factor}"
            )
        t = max(self.clock.now, self.master_time) if at is None else at
        model = (
            self._nominal_model
            if factor == 1.0
            else self._nominal_model.scaled_frequency(factor)
        )
        self.machine_model = model
        self._inv_ops = 1.0 / model.ops_per_second
        self.accounting.record_dvfs(t, factor)

    def _wake_idle(self, now: float) -> None:
        # Wake idle workers (owner or thief — acquire() resolves which),
        # coalescing to at most one pending tryrun event per worker.
        # Busy workers need no event: they re-poll when they finish.
        if self._idle:
            pending = self._wake_pending
            push = self.events.push
            for w in self._idle:
                if not pending[w]:
                    pending[w] = True
                    push(now, self._try_run, tag="tryrun", payload=w)

    def _do_enqueue(self, task: Task, now: float) -> None:
        task.t_issued = now
        self.queues.push(task)
        self._wake_idle(now)

    def _do_enqueue_many(self, tasks: list[Task], now: float) -> None:
        push = self.queues.push
        for task in tasks:
            task.t_issued = now
            push(task)
        self._wake_idle(now)

    # -- worker-side operations ------------------------------------------
    def _try_run(self, worker: int, now: float) -> None:
        self._wake_pending[worker] = False
        if self.busy[worker]:
            return
        task = self.queues.acquire(worker)
        if task is None:
            return
        self._start_task(worker, task, now)

    def _start_task(self, worker: int, task: Task, now: float) -> None:
        kind = self._decide(task, worker)
        overhead = self._decide_overhead_const
        if overhead is None:
            overhead = self._decide_overhead(task)

        task.state = TaskState.RUNNING
        task.worker = worker
        task.t_started = now

        if self._wants_measurement(task):
            host_t0 = _time.perf_counter()
            task.execute(kind)
            host_dt = _time.perf_counter() - host_t0
            self.accounting.add_host_seconds(host_dt)
        else:
            task.execute(kind)
            host_dt = None

        duration = self.cost_model.duration(
            task, kind, self.machine_model, measured_wall=host_dt
        ) + overhead * self._inv_ops
        self.busy[worker] = True
        self._idle.discard(worker)
        self.events.push(
            now + duration, self._finish_task, tag="finish", payload=task
        )

    def _finish_task(self, task: Task, now: float) -> None:
        worker = task.worker
        self.busy[worker] = False
        self._idle.add(worker)
        task.state = TaskState.FINISHED
        task.t_finished = now
        assert task.decision is not None
        self.accounting.record_task(
            task, worker, task.t_started, now, task.decision
        )
        # Group bookkeeping + dependence release (may enqueue successors
        # at `now`; their events sort after this one).
        self.on_task_finished(task, now)
        if not self._wake_pending[worker]:
            self._wake_pending[worker] = True
            self.events.push(now, self._try_run, tag="tryrun", payload=worker)

    # -- event loop --------------------------------------------------------
    def run_until(
        self, predicate: Callable[[], bool], description: str = "barrier"
    ) -> float:
        """Pump events in time order until ``predicate()`` holds.

        Stops at the first instant the condition is satisfied (leaving
        unrelated future events queued, so other task groups keep
        running "in the background" of subsequent program phases).  If
        the event queue drains with the condition unsatisfied, the
        stall handler gets one chance to produce work (e.g. flushing GTB
        buffers); a second stall is a genuine deadlock.
        """
        stalled_once = False
        events = self.events
        pop = events.pop
        advance = self.clock.advance_unchecked
        while not predicate():
            if not events:
                if not stalled_once and self.stall_handler is not None:
                    stalled_once = True
                    if self.stall_handler():
                        continue
                raise SchedulerError(
                    f"simulation stalled waiting for {description}: no "
                    "events left but the wait condition is unsatisfied "
                    "(buffered tasks never flushed, or a dependence "
                    "cycle)"
                )
            ev = pop()
            advance(ev.time)
            ev.action(ev.payload, ev.time)
        # The master was blocked at the barrier until this instant.
        now = self.clock.now
        if now > self.master_time:
            self.master_time = now
        return now

    def drain(self) -> float:
        """Run every remaining event in one batch (the final barrier)."""
        events = self.events
        pop = events.pop
        advance = self.clock.advance_unchecked
        while events:
            ev = pop()
            advance(ev.time)
            ev.action(ev.payload, ev.time)
        now = self.clock.now
        if now > self.master_time:
            self.master_time = now
        return now

    def detach(self) -> None:
        """Drop the run's callbacks once it is drained: they point back
        at the scheduler and governor that own this machine."""
        self.on_task_finished = self.stall_handler = self._tick_cb = None

    # -- reporting -----------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Completion time of the whole run (workers and master)."""
        return max(self.trace.makespan, self.master_time)
