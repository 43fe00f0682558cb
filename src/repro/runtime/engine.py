"""Execution engines: how tasks actually run.

One scheduler, interchangeable execution backends (DESIGN.md section 5):

* :class:`SimulatedEngine` — the default.  Wraps
  :class:`repro.sim.machine.SimulatedMachine`: N virtual cores under a
  deterministic discrete-event clock.  Task bodies really execute (so
  results and quality metrics are genuine); durations come from the cost
  model; energy from the machine power model.  This engine reproduces
  the paper's 16-core testbed on any host.
* :class:`ThreadedEngine` — real ``threading`` workers sharing the same
  queue fabric and policies.  Useful when task bodies release the GIL
  (NumPy); timing is host wall-clock and therefore noisy.  The energy
  report applies the machine power model to *measured* busy intervals —
  an estimate, clearly labelled as such.
* :class:`~repro.runtime.process_engine.ProcessPoolEngine`
  (spec ``"process"``) — task bodies execute in a
  ``concurrent.futures`` process pool, giving NumPy-heavy kernels real
  parallelism; results and mutated ``out()`` arrays are marshalled back
  into the master's dependence-release path.
* ``sequential`` — a :class:`SimulatedEngine` with one worker; the
  reference semantics for debugging.
* ``faulty`` (:mod:`repro.faults`) — a fault-injecting simulated
  machine for the unreliable-hardware scenario.

Engines expose a deliberately narrow interface — the
:class:`ExecutionBackend` protocol: ``enqueue``/``enqueue_many`` ready
tasks, ``master_charge`` bookkeeping work, ``run_until`` a barrier
predicate holds, ``finish`` the run.  All bookkeeping flows through one
shared :class:`~repro.runtime.accounting.AccountingCore` per run
(DESIGN.md section 6), which is what keeps report schemas identical
across backends.
"""

from __future__ import annotations

import abc
import threading
import time as _time
from typing import (
    TYPE_CHECKING,
    Callable,
    Protocol,
    runtime_checkable,
)

from ..registry import register
from ..sim.machine import SimulatedMachine
from ..sim.trace import ExecutionTrace, Segment
from .accounting import AccountingCore, AccountingShard
from .errors import SchedulerError
from .queues import ShardedWorkerQueues
from .task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from ..energy.cost import CostModel
    from ..energy.machine_model import MachineModel
    from ..runtime.policies.base import Policy
    from .queues import QueueStats

__all__ = [
    "ExecutionBackend",
    "Engine",
    "WallClockTicks",
    "SimulatedEngine",
    "ThreadedEngine",
    "sequential_engine",
]


@runtime_checkable
class ExecutionBackend(Protocol):
    """The structural contract between the scheduler and any backend.

    :class:`Engine` is the convenience ABC implementing the shared
    parts; third-party backends may instead satisfy this protocol
    directly (it is ``runtime_checkable`` for duck-typed wiring).
    """

    def enqueue(self, task: Task, at: float | None = None) -> None:
        """Accept one dependence-free task for execution."""
        ...

    def enqueue_many(
        self, tasks: list[Task], at: float | None = None
    ) -> None:
        """Accept a batch of dependence-free tasks in one call."""
        ...

    def master_charge(self, work_units: float) -> None:
        """Account master-side bookkeeping work."""
        ...

    @property
    def master_time(self) -> float:
        """The master thread's current (virtual or wall) time."""
        ...

    def set_tick(
        self, interval: float, callback: Callable[[float], None]
    ) -> None:
        """Install a periodic ``callback(now)`` on the engine timeline."""
        ...

    def set_frequency_factor(
        self, factor: float, at: float | None = None
    ) -> None:
        """Switch the (simulated) DVFS state from time ``at`` onward."""
        ...

    def run_until(
        self, predicate: Callable[[], bool], description: str
    ) -> float:
        """Block until the barrier predicate holds; return the time."""
        ...

    def finish(self) -> tuple[ExecutionTrace, float]:
        """Complete all work; return (trace, makespan)."""
        ...

    @property
    def accounting(self) -> AccountingCore:
        """The run's shared trace/energy/stats bookkeeping core."""
        ...

    @property
    def n_workers(self) -> int: ...

    @property
    def queue_stats(self) -> "QueueStats": ...


class Engine(abc.ABC):
    """Base class for execution backends (see :class:`ExecutionBackend`).

    Subclasses record every observation through :attr:`accounting`; the
    default :meth:`enqueue_many` loops :meth:`enqueue`, and backends
    with a cheaper batch admission path override it.
    """

    #: Whether :meth:`set_frequency_factor` stretches task durations on
    #: this backend (virtual-time engines) or only changes the billed
    #: power point (wall-clock engines, which cannot retime reality).
    #: The governor uses this to de-scale busy-time observations.
    dvfs_scales_time: bool = False

    @abc.abstractmethod
    def enqueue(self, task: Task, at: float | None = None) -> None:
        """Accept a dependence-free task for execution."""

    def enqueue_many(
        self, tasks: list[Task], at: float | None = None
    ) -> None:
        """Accept a batch of ready tasks (default: one-by-one)."""
        for task in tasks:
            self.enqueue(task, at)

    @abc.abstractmethod
    def master_charge(self, work_units: float) -> None:
        """Account master-side bookkeeping work."""

    @property
    @abc.abstractmethod
    def master_time(self) -> float:
        """The master thread's current (virtual or wall) time."""

    # -- online control surface (the governor's actuators) ---------------
    def set_tick(
        self, interval: float, callback: Callable[[float], None]
    ) -> None:
        """Install a periodic ``callback(now)`` on the engine timeline.

        Backends without a periodic-callback facility must say so
        loudly — a governor silently never ticking would look like a
        controller bug, not a backend limitation.
        """
        raise SchedulerError(
            f"{type(self).__name__} does not support periodic ticks"
        )

    def set_frequency_factor(
        self, factor: float, at: float | None = None
    ) -> None:
        """Switch the DVFS state from time ``at`` (default: now) onward.

        The base implementation records the epoch in the accounting
        core only — correct for the wall-clock backends (threaded /
        process), where the model cannot retime real execution but the
        energy attribution should bill the downclocked power point.
        The simulated engines additionally stretch future durations.
        """
        if factor <= 0:
            raise SchedulerError(
                f"frequency factor must be > 0: {factor}"
            )
        t = self.master_time if at is None else at
        self.accounting.record_dvfs(t, factor)

    @abc.abstractmethod
    def run_until(
        self, predicate: Callable[[], bool], description: str
    ) -> float:
        """Block until the barrier predicate holds; return the time."""

    @abc.abstractmethod
    def finish(self) -> tuple[ExecutionTrace, float]:
        """Complete all work; return (trace, makespan)."""

    @property
    @abc.abstractmethod
    def accounting(self) -> AccountingCore:
        """The run's shared bookkeeping core."""

    @property
    def trace(self) -> ExecutionTrace:
        return self.accounting.trace

    @property
    @abc.abstractmethod
    def n_workers(self) -> int: ...

    @property
    @abc.abstractmethod
    def queue_stats(self): ...


class WallClockTicks:
    """Shared periodic-tick state for the wall-clock engines.

    Threaded and process backends both fire governor ticks from their
    barrier wait loops; this mixin owns the deadline bookkeeping so the
    two cannot drift apart.  Missed deadlines are *skipped*, not
    replayed: after an idle stretch (e.g. a long spawn phase between
    barriers) the next check fires exactly one catch-up tick and
    fast-forwards the deadline — a burst of zero-width ticks would
    bloat the governor history and stall barrier entry for nothing.
    """

    _tick_interval = 0.0
    _tick_cb: Callable[[float], None] | None = None
    _tick_next = float("inf")

    def set_tick(
        self, interval: float, callback: Callable[[float], None]
    ) -> None:
        """Periodic callback in wall seconds, fired from the barrier
        wait loop (the master's blocking point on these backends)."""
        if interval <= 0:
            raise SchedulerError(
                f"tick interval must be > 0, got {interval}"
            )
        self._tick_interval = interval
        self._tick_cb = callback
        self._tick_next = self.master_time + interval

    def _maybe_tick(self, now: float) -> None:
        """Fire one due tick; callers hold whatever lock serializes
        their accounting (re-entrant callbacks are safe there)."""
        cb = self._tick_cb
        if cb is None or now < self._tick_next:
            return
        self._tick_next = now + self._tick_interval
        cb(now)

    def _tick_clamped_wait(self, timeout: float, now: float) -> float:
        """Shrink a blocking wait so a tick deadline is not slept
        through (the governor needs sub-poll-quantum resolution)."""
        if self._tick_cb is None:
            return timeout
        return min(timeout, max(self._tick_next - now, 0.0))


@register("engine", "simulated", "sim")
class SimulatedEngine(Engine):
    """Virtual-time engine over :class:`SimulatedMachine`."""

    dvfs_scales_time = True

    def __init__(
        self,
        n_workers: int,
        machine_model: "MachineModel",
        cost_model: "CostModel",
        policy: "Policy",
        on_task_finished: Callable[[Task, float], None],
        stall_handler: Callable[[], bool] | None = None,
    ) -> None:
        self.machine = SimulatedMachine(
            n_workers,
            machine_model,
            cost_model,
            policy,
            on_task_finished,
            stall_handler,
            accounting=AccountingCore(n_workers),
        )

    def enqueue(self, task: Task, at: float | None = None) -> None:
        self.machine.enqueue(task, at)

    def enqueue_many(
        self, tasks: list[Task], at: float | None = None
    ) -> None:
        self.machine.enqueue_many(tasks, at)

    def master_charge(self, work_units: float) -> None:
        self.machine.master_charge(work_units)

    @property
    def master_time(self) -> float:
        return self.machine.master_time

    def set_tick(
        self, interval: float, callback: Callable[[float], None]
    ) -> None:
        self.machine.set_tick(interval, callback)

    def set_frequency_factor(
        self, factor: float, at: float | None = None
    ) -> None:
        # The machine owns both knobs the switch turns: the active
        # model (future durations) and the accounting epoch (energy).
        self.machine.set_frequency_factor(factor, at)

    def run_until(
        self, predicate: Callable[[], bool], description: str
    ) -> float:
        return self.machine.run_until(predicate, description)

    def finish(self) -> tuple[ExecutionTrace, float]:
        self.machine.drain()
        self.machine.detach()
        return self.machine.trace, self.machine.makespan

    @property
    def n_workers(self) -> int:
        return self.machine.queues.n_workers

    @property
    def queue_stats(self):
        return self.machine.queues.stats

    @property
    def accounting(self) -> AccountingCore:
        # Delegated (not stored) so machine-swapping subclasses like
        # FaultAwareEngine stay consistent with their machine's core.
        return self.machine.accounting

    @property
    def trace(self) -> ExecutionTrace:
        return self.machine.trace


@register("engine", "threaded", "threads")
class ThreadedEngine(WallClockTicks, Engine):
    """Real-thread engine sharing the queue fabric and policies.

    The scheduling hot path is lock-free (DESIGN.md section 12): worker
    threads pop from :class:`ShardedWorkerQueues` and buffer finished-
    task observations in per-worker :class:`AccountingShard` deltas
    without touching the engine lock; the lock is taken only for the
    completion handshake (dependence release, in-flight accounting) and
    when a worker runs dry and must park on the condition variable.
    The master merges the shards into the shared trace at barrier
    points, so every aggregate view still reads one serialized
    :class:`AccountingCore`.  Timestamps are wall-clock seconds
    relative to engine construction, so the resulting trace can be fed
    to the same energy model (as an *estimate*; see module docstring).
    """

    _IDLE_WAIT_S = 0.05

    def __init__(
        self,
        n_workers: int,
        machine_model: "MachineModel",
        cost_model: "CostModel",
        policy: "Policy",
        on_task_finished: Callable[[Task, float], None],
        stall_handler: Callable[[], bool] | None = None,
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

        self.queues = ShardedWorkerQueues(n_workers)
        self._accounting = AccountingCore(n_workers)
        self._t0 = _time.perf_counter()
        # RLock: on_task_finished (held) may release successors, which
        # re-enters enqueue() on the same lock.
        self._lock = threading.RLock()
        self._work_cv = threading.Condition(self._lock)
        self._done_cv = threading.Condition(self._lock)
        self._stop = False
        self._inflight = 0
        policy.make_worker_state(n_workers)
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(w,), daemon=True
            )
            for w in range(n_workers)
        ]
        for t in self._threads:
            t.start()

    # -- master side -----------------------------------------------------
    def _now(self) -> float:
        return _time.perf_counter() - self._t0

    def enqueue(self, task: Task, at: float | None = None) -> None:
        with self._work_cv:
            task.t_issued = self._now()
            self.queues.push(task)
            self._inflight += 1
            self._work_cv.notify_all()

    def enqueue_many(
        self, tasks: list[Task], at: float | None = None
    ) -> None:
        # Batched admission: one lock acquisition and one wake-up for
        # the whole batch (the spawn_many fast path).
        with self._work_cv:
            now = self._now()
            push = self.queues.push
            for task in tasks:
                task.t_issued = now
                push(task)
            self._inflight += len(tasks)
            self._work_cv.notify_all()

    def master_charge(self, work_units: float) -> None:
        # Real bookkeeping already costs real time on this engine; we
        # only record the model-equivalent for reporting symmetry.
        self._accounting.add_master_busy(
            self.machine_model.duration_of(work_units)
        )

    @property
    def master_time(self) -> float:
        return self._now()

    # -- worker side ----------------------------------------------------
    def _worker_loop(self, worker: int) -> None:
        shard = self._accounting.shard(worker)
        acquire = self.queues.acquire
        while True:
            # Fast path: pop/steal straight off the sharded deques —
            # no lock while work is plentiful.
            task = acquire(worker)
            if task is None:
                # Slow path: park on the condition variable.  Re-check
                # under the lock first — a push between the lock-free
                # miss and the wait would otherwise be slept through.
                with self._work_cv:
                    task = acquire(worker)
                    while task is None:
                        if self._stop:
                            return
                        self._work_cv.wait(self._IDLE_WAIT_S)
                        task = acquire(worker)
            self._run_one(worker, task, shard)

    def _run_one(
        self, worker: int, task: Task, shard: AccountingShard
    ) -> None:
        kind = self.policy.decide(task, worker)
        task.state = TaskState.RUNNING
        task.worker = worker
        start = self._now()
        task.t_started = start
        task.execute(kind)
        end = self._now()
        # Trace bookkeeping goes to the worker's own shard, lock-free;
        # it is buffered *before* the in-flight decrement below, so a
        # barrier that observes quiescence always finds the segment at
        # its merge point.
        shard.record(
            Segment(worker, start, end, task.tid, kind, task.group),
            end - start,
        )
        with self._lock:
            task.state = TaskState.FINISHED
            task.t_finished = end
            self.on_task_finished(task, end)
            self._inflight -= 1
            self._done_cv.notify_all()

    # -- barriers ---------------------------------------------------------
    def run_until(
        self, predicate: Callable[[], bool], description: str
    ) -> float:
        stalled_once = False
        with self._done_cv:
            while not predicate():
                # Fold the workers' buffered deltas into the shared
                # trace before any tick callback (the governor samples
                # the trace) and before stall diagnosis.
                self._accounting.merge_shards()
                self._maybe_tick(self._now())
                if self._inflight == 0 and len(self.queues) == 0:
                    if not stalled_once and self.stall_handler is not None:
                        stalled_once = True
                        # Stall handler may spawn/flush, which re-enters
                        # enqueue -> needs the lock we hold; release it.
                        self._done_cv.release()
                        try:
                            produced = self.stall_handler()
                        finally:
                            self._done_cv.acquire()
                        if produced:
                            continue
                    raise SchedulerError(
                        f"threaded engine stalled at {description}"
                    )
                self._done_cv.wait(
                    self._tick_clamped_wait(self._IDLE_WAIT_S, self._now())
                )
            self._accounting.merge_shards()
            # A barrier whose predicate is already true never enters
            # the wait loop; a tick that came due meanwhile is
            # delivered here, against the fully merged trace.
            self._maybe_tick(self._now())
        return self._now()

    def finish(self) -> tuple[ExecutionTrace, float]:
        self.run_until(
            lambda: self._inflight == 0 and len(self.queues) == 0,
            "engine shutdown",
        )
        with self._work_cv:
            self._stop = True
            self._work_cv.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)
        # Workers are parked/joined: one final merge catches segments
        # buffered after the last barrier's merge point.
        self._accounting.merge_shards()
        # Nothing calls back any more; drop the references to the
        # scheduler and governor that own this engine.
        self.on_task_finished = self.stall_handler = self._tick_cb = None
        return self.trace, max(self.trace.makespan, self._now())

    @property
    def accounting(self) -> AccountingCore:
        return self._accounting

    @property
    def n_workers(self) -> int:
        return self.queues.n_workers

    @property
    def queue_stats(self):
        return self.queues.stats


@register("engine", "sequential", "serial")
def sequential_engine(
    n_workers: int,
    machine_model: "MachineModel",
    cost_model: "CostModel",
    policy: "Policy",
    on_task_finished: Callable[[Task, float], None],
    stall_handler: Callable[[], bool] | None = None,
) -> SimulatedEngine:
    """Reference semantics: a one-worker :class:`SimulatedEngine`."""
    return SimulatedEngine(
        1, machine_model, cost_model, policy, on_task_finished, stall_handler
    )
