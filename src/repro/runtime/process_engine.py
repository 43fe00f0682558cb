"""Process-pool execution backend: real parallelism for task bodies.

The paper's runtime executes task bodies on 16 hardware threads; the
:class:`~repro.runtime.engine.ThreadedEngine` approximates that but is
GIL-bound for pure-Python bodies.  :class:`ProcessPoolEngine` (spec
``"process"``) executes bodies in a ``concurrent.futures`` process pool
instead, so NumPy-heavy and pure-Python kernels both scale across cores
(DESIGN.md section 5).

Scheduling stays on the master: policy decisions, the per-worker queue
fabric with round-robin issue and stealing, and dependence release all
run in the parent process — only the *body execution* is shipped out.
That keeps the backend a drop-in sibling of the simulated and threaded
engines, sharing the same accounting core and report schema.

Marshalling contract (the price of process isolation):

* task payloads — the body callable, its arguments, and keyword
  arguments — must pickle (module-level functions, plain data, NumPy
  arrays); a lambda body raises a clear ``SchedulerError``;
* return values are marshalled back and stored on ``Task.result``
  before the dependence-release path runs, so successors observe them
  exactly as on the in-process engines;
* in-place mutations of ``out()`` arguments are written back by a
  change-diff protocol: the child snapshots each out-argument before
  running the body and returns only the elements that changed, which
  the master applies to the original buffer.  Concurrent tasks writing
  *disjoint* regions of a shared NumPy array therefore merge correctly
  (the Sobel row pattern); non-array out-arguments (lists, dicts,
  bytearrays) are replaced wholesale, so concurrent writers of the same
  object should be ordered with ``out()`` dependences.

Timestamps are wall-clock seconds relative to engine construction (as
on the threaded engine) and include submission/IPC overhead, so the
energy report is an *estimate* over measured busy intervals.

Cost model of the write-back: each task ships its full argument set
and the child snapshots/diffs every out-argument array, because a
``region`` tag is an opaque dependence *identity* (int/str/tuple), not
a slice descriptor — a task may legally write anywhere in a buffer it
declares ``out()`` on, so shipping only a region-named slice could
silently drop writes.  Per-task overhead therefore scales with the
*whole* out-buffer size, not the region touched; keep shared buffers
modest (or pass per-task sub-arrays) when using this backend for
fine-grained region-parallel kernels.

Diff coverage: the change-diff enumerates elements in *logical*
C-order on both sides, so F-order and strided views write back
correctly.  Arrays the diff cannot handle (0-d, object dtypes, dtypes
whose ``!=`` comparison fails) are replaced wholesale instead; writing
back into a read-only buffer raises a clear ``SchedulerError``.

The zero-copy alternative: ``"process:shm=true"`` routes ndarray
payloads through the shared-memory data plane
(:mod:`repro.runtime.memory`) — pool-backed arrays ship as
:class:`~repro.runtime.memory.ArrayRef` descriptors and workers write
results in place, skipping the pickle/snapshot/diff cycle entirely;
foreign arrays above ``shm_min_bytes`` are promoted (copied into a
pooled segment once per barrier phase).  See ``docs/data_plane.md``
for the ownership rules.
"""

from __future__ import annotations

import os
import pickle
import sys
import time as _time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as _wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Callable

try:  # numpy powers the diff write-back; everything else works without
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a hard dep today
    _np = None

from ..registry import register
from .accounting import AccountingCore
from .engine import Engine, WallClockTicks
from .errors import SchedulerError
from .memory import (
    ArrayExporter,
    ArrayRef,
    attach_array,
    shared_array_pool,
)
from .pool import discard_shared_pool, shared_process_pool
from .queues import WorkerQueues
from .task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from ..energy.cost import CostModel
    from ..energy.machine_model import MachineModel
    from ..sim.trace import ExecutionTrace
    from .policies.base import Policy

__all__ = ["ProcessPoolEngine"]

#: Slot address inside a payload: ("a", index) for a positional
#: argument, ("k", name) for a keyword argument.
_Slot = tuple[str, Any]


def _identity_chain(obj: Any) -> int:
    """Identity key of an object's base buffer (mirrors ``task.ref``)."""
    base = getattr(obj, "base", None)
    while base is not None:
        obj = base
        base = getattr(obj, "base", None)
    return id(obj)


def _writeback_slots(task: Task) -> list[_Slot]:
    """Argument slots aliasing an ``out()`` clause that we can restore.

    Scanned on the master, where arguments are still the original
    objects; the child only ever sees slot addresses.
    """
    out_keys = {d.key for d in task.outs}
    if not out_keys:
        return []
    slots: list[_Slot] = []
    for i, arg in enumerate(task.args):
        if _identity_chain(arg) in out_keys and _supports_writeback(arg):
            slots.append(("a", i))
    for name, value in task.kwargs.items():
        if _identity_chain(value) in out_keys and _supports_writeback(value):
            slots.append(("k", name))
    return slots


def _supports_writeback(obj: Any) -> bool:
    if _np is not None and isinstance(obj, _np.ndarray):
        return True
    return isinstance(obj, (list, dict, bytearray))


def _slot_value(args: tuple, kwargs: dict, slot: _Slot) -> Any:
    where, key = slot
    return args[key] if where == "a" else kwargs[key]


def _body_ref(body: Callable) -> tuple | None:
    """A by-name reference for bodies hidden behind decorators.

    ``@sig_task`` rebinds the module attribute to the wrapping
    ``TaskFunction``, so the inner function no longer pickles by
    reference ("it's not the same object as module.name").  When the
    module attribute is such a wrapper around ``body`` (its accurate
    ``fn`` or its ``approxfun`` clause), ship ``(role, module, name)``
    instead and let the child re-resolve it.  Returns ``None`` for
    ordinary module-level functions, which pickle fine as-is.
    """
    mod = getattr(body, "__module__", None)
    name = getattr(body, "__qualname__", None)
    if not mod or not name or "." in name:
        return None
    owner = sys.modules.get(mod)
    attr = getattr(owner, name, None) if owner is not None else None
    if attr is None or attr is body:
        return None
    if getattr(attr, "fn", None) is body:
        return ("fn", mod, name)
    clauses = getattr(attr, "clauses", None)
    if isinstance(clauses, dict) and clauses.get("approxfun") is body:
        return ("approxfun", mod, name)
    return None


def _resolve_body(body: Any) -> Callable:
    """Child-side inverse of :func:`_body_ref`."""
    if not (
        isinstance(body, tuple)
        and len(body) == 3
        and body[0] in ("fn", "approxfun")
    ):
        return body
    import importlib

    role, mod, name = body
    attr = getattr(importlib.import_module(mod), name)
    return attr.fn if role == "fn" else attr.clauses["approxfun"]


def _diffable(obj: Any) -> bool:
    """Whether the change-diff protocol can cover an ndarray.

    0-d arrays cannot be fancy-indexed and object dtypes have no
    reliable elementwise ``!=``; both fall back to wholesale
    replacement (``"ndfull"``).
    """
    return obj.ndim > 0 and not obj.dtype.hasobject


def _child_execute(payload: tuple) -> tuple[Any, float, list]:
    """Run one task body in a pool worker.

    Returns ``(result, host_seconds, updates)`` where ``updates`` holds
    one write-back record per out-slot (see :func:`_apply_update`).
    Arguments arriving as :class:`~repro.runtime.memory.ArrayRef` are
    resolved to shared-memory views first; their writes need no
    update record at all.
    """
    body, args, kwargs, slots = payload
    body = _resolve_body(body)
    if any(isinstance(a, ArrayRef) for a in args):
        args = tuple(
            attach_array(a) if isinstance(a, ArrayRef) else a
            for a in args
        )
    if any(isinstance(v, ArrayRef) for v in kwargs.values()):
        kwargs = {
            k: attach_array(v) if isinstance(v, ArrayRef) else v
            for k, v in kwargs.items()
        }
    snapshots = {}
    for slot in slots:
        obj = _slot_value(args, kwargs, slot)
        if (
            _np is not None
            and isinstance(obj, _np.ndarray)
            and _diffable(obj)
        ):
            snapshots[slot] = obj.copy()
    t0 = _time.perf_counter()
    result = body(*args, **kwargs)
    host_s = _time.perf_counter() - t0

    updates: list[tuple[_Slot, tuple]] = []
    for slot in slots:
        obj = _slot_value(args, kwargs, slot)
        snap = snapshots.get(slot)
        if snap is not None:
            # Diff write-back: ship only the changed elements so that
            # parallel tasks mutating disjoint regions of one shared
            # array merge instead of clobbering each other.  Both sides
            # enumerate elements in logical C-order, so F-order and
            # strided views round-trip correctly.
            try:
                changed = (obj != snap).ravel()
                idx = _np.flatnonzero(changed)
            except Exception:
                # A dtype whose comparison fails (exotic structured
                # types): replace wholesale rather than dropping writes.
                updates.append((slot, ("ndfull", _np.asarray(obj))))
                continue
            if idx.size:
                updates.append(
                    (slot, ("nd", idx, obj.reshape(-1)[idx]))
                )
        elif _np is not None and isinstance(obj, _np.ndarray):
            # 0-d / object-dtype arrays: no diff, ship the whole thing.
            updates.append((slot, ("ndfull", obj)))
        else:
            updates.append((slot, ("obj", obj)))
    return result, host_s, updates


def _apply_update(task: Task, slot: _Slot, update: tuple) -> None:
    """Apply one child-side write-back record to the original object."""
    where, key = slot
    original = task.args[key] if where == "a" else task.kwargs[key]
    mode, *payload = update
    if mode == "nd":
        idx, values = payload
        try:
            original[_np.unravel_index(idx, original.shape)] = values
        except ValueError as exc:
            raise SchedulerError(
                f"cannot write back out() array for task {task.tid}: "
                f"{exc}. out() arrays mutated in a process-engine task "
                "must be writable in the parent."
            ) from exc
    elif mode == "ndfull":
        try:
            original[...] = payload[0]
        except ValueError as exc:
            raise SchedulerError(
                f"cannot write back out() array for task {task.tid}: "
                f"{exc}. out() arrays mutated in a process-engine task "
                "must be writable in the parent."
            ) from exc
    elif isinstance(original, dict):
        original.clear()
        original.update(payload[0])
    else:  # list / bytearray: wholesale replacement
        original[:] = payload[0]


@register("engine", "process", "procpool", "processes")
class ProcessPoolEngine(WallClockTicks, Engine):
    """Execute task bodies in a ``ProcessPoolExecutor``.

    Parameters (after the standard engine wiring): ``max_procs`` caps
    the OS processes backing the ``n_workers`` logical worker slots
    (default ``min(n_workers, cpu_count)``); ``start_method`` selects
    the multiprocessing context (``None`` = platform default);
    ``reuse_pool`` (default on) executes on the shared warm executor
    from :mod:`repro.runtime.pool` instead of building a private pool —
    which is what lets an :class:`~repro.experiment.ExperimentSpec`
    sweep (or a long-lived :class:`~repro.serve.TaskService`)
    run many process-engine cells without paying pool startup per cell;
    ``pool_tag`` selects a *distinct* shared pool per tag, so
    co-resident engines (the serve cluster's shards) each keep their
    own warm processes instead of contending for one executor;
    ``shm`` switches ndarray payloads to the zero-copy shared-memory
    data plane (:mod:`repro.runtime.memory`), with ``shm_min_bytes``
    keeping arrays below the threshold on the pickle path.

    Registered under the ``"process"`` engine spec strings
    (``"process"``, ``"process:shm=true"``, ...), normally given via
    :class:`~repro.config.RuntimeConfig` or ``Scheduler(engine=...)``.
    """

    #: Blocking-wait quantum while a barrier predicate is unsatisfied.
    _POLL_S = 0.05

    def __init__(
        self,
        n_workers: int,
        machine_model: "MachineModel",
        cost_model: "CostModel",
        policy: "Policy",
        on_task_finished: Callable[[Task, float], None],
        stall_handler: Callable[[], bool] | None = None,
        *,
        max_procs: int | None = None,
        start_method: str | None = None,
        reuse_pool: bool = True,
        pool_tag: str | None = None,
        shm: bool = False,
        shm_min_bytes: int = 4096,
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
        self.max_procs = max_procs or min(
            n_workers, os.cpu_count() or n_workers
        )
        self.start_method = start_method
        self.reuse_pool = reuse_pool
        self.pool_tag = pool_tag
        #: Zero-copy payload encoder (None = classic pickle/diff plane).
        self._exporter: ArrayExporter | None = None
        if shm:
            if _np is None:  # pragma: no cover - numpy is a hard dep
                raise SchedulerError(
                    "process engine shm=true requires numpy"
                )
            self._exporter = ArrayExporter(
                shared_array_pool(pool_tag), min_bytes=shm_min_bytes
            )

        self.queues = WorkerQueues(n_workers)
        self._accounting = AccountingCore(n_workers)
        self._t0 = _time.perf_counter()
        self._pool: ProcessPoolExecutor | None = None
        #: future -> (task, worker slot, start time, decided kind)
        self._pending: dict[Future, tuple[Task, int, float, Any]] = {}
        self._free = list(range(n_workers - 1, -1, -1))  # pop() -> slot 0
        policy.make_worker_state(n_workers)

    # -- master side -----------------------------------------------------
    def _now(self) -> float:
        return _time.perf_counter() - self._t0

    def enqueue(self, task: Task, at: float | None = None) -> None:
        task.t_issued = self._now()
        self.queues.push(task)
        self._dispatch()

    def enqueue_many(
        self, tasks: list[Task], at: float | None = None
    ) -> None:
        now = self._now()
        push = self.queues.push
        for task in tasks:
            task.t_issued = now
            push(task)
        self._dispatch()

    def master_charge(self, work_units: float) -> None:
        # As on the threaded engine: bookkeeping costs real time here;
        # record the model-equivalent for reporting symmetry.
        self._accounting.add_master_busy(
            self.machine_model.duration_of(work_units)
        )

    @property
    def master_time(self) -> float:
        return self._now()

    # -- dispatch / harvest ----------------------------------------------
    def _pool_or_start(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self.reuse_pool:
                self._pool = shared_process_pool(
                    self.max_procs, self.start_method, self.pool_tag
                )
            else:
                ctx = None
                if self.start_method is not None:
                    import multiprocessing

                    ctx = multiprocessing.get_context(self.start_method)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_procs, mp_context=ctx
                )
        return self._pool

    def _dispatch(self) -> None:
        """Fill free worker slots from the queue fabric."""
        free = self._free
        while free and len(self.queues):
            worker = free.pop()
            task = self.queues.acquire(worker)
            if task is None:  # pragma: no cover - fabric said non-empty
                free.append(worker)
                break
            self._submit(task, worker)

    def _submit(self, task: Task, worker: int) -> None:
        kind = self.policy.decide(task, worker)
        task.state = TaskState.RUNNING
        task.worker = worker
        start = self._now()
        task.t_started = start
        body = task.body_for(kind)
        if body is None:
            # Dropped (or bodiless approximate) task: nothing to ship.
            task.execute(kind)
            self._complete(task, worker, kind, start, start, host_s=0.0)
            return
        args, kwargs = task.args, task.kwargs
        slots = _writeback_slots(task)
        if self._exporter is not None:
            # Zero-copy plane: exportable ndarrays become ArrayRefs;
            # exported out-slots leave the diff protocol (their writes
            # land in shared memory directly).
            args, kwargs, slots = self._exporter.encode(
                args, kwargs, slots
            )
        payload = (_body_ref(body) or body, args, kwargs, slots)
        future = self._pool_or_start().submit(_child_execute, payload)
        self._pending[future] = (task, worker, start, kind)

    def _harvest(self, timeout: float | None) -> bool:
        """Process finished futures; True when at least one completed."""
        if not self._pending:
            return False
        done, _ = _wait(
            tuple(self._pending),
            timeout=timeout,
            return_when=FIRST_COMPLETED,
        )
        for future in done:
            task, worker, start, kind = self._pending.pop(future)
            try:
                result, host_s, updates = future.result()
            except BrokenProcessPool as exc:
                if self.reuse_pool:
                    # Evict the broken shared pool so the next engine
                    # (or retry) gets a fresh one instead of the corpse.
                    discard_shared_pool(
                        self.max_procs, self.start_method, self.pool_tag
                    )
                    self._pool = None
                if self._exporter is not None:
                    # Promotion contents are not trustworthy after a
                    # worker crash: recycle their segments unsynced.
                    self._exporter.abort_phase()
                raise SchedulerError(
                    f"process pool died while running task {task.tid} "
                    f"({exc}); the worker process likely crashed"
                ) from exc
            except Exception as exc:
                # Submission-side pickling failures surface through the
                # future; distinguish them from genuine body exceptions
                # (which propagate unchanged, as on the other engines).
                is_marshal = isinstance(exc, pickle.PicklingError) or (
                    isinstance(exc, (TypeError, AttributeError))
                    and "pickle" in str(exc).lower()
                )
                if not is_marshal:
                    raise
                raise SchedulerError(
                    f"process engine could not marshal task "
                    f"{getattr(task.fn, '__name__', task.fn)!r}: {exc}. "
                    "Task bodies and arguments must be picklable "
                    "(module-level functions, plain data, NumPy arrays)."
                ) from exc
            task.decision = kind
            task.result = result
            for slot, update in updates:
                _apply_update(task, slot, update)
            self._complete(
                task, worker, kind, start, self._now(), host_s=host_s
            )
        return bool(done)

    def _complete(
        self,
        task: Task,
        worker: int,
        kind: Any,
        start: float,
        end: float,
        host_s: float,
    ) -> None:
        task.state = TaskState.FINISHED
        task.t_finished = end
        self._accounting.record_task(
            task, worker, start, end, kind, host_s=host_s
        )
        self._free.append(worker)
        # Dependence release may enqueue successors, which re-enters
        # _dispatch; the explicit call below then finds no free slot or
        # no work and is a no-op.
        self.on_task_finished(task, end)
        self._dispatch()

    # -- barriers ---------------------------------------------------------
    def run_until(
        self, predicate: Callable[[], bool], description: str
    ) -> float:
        stalled_once = False
        while not predicate():
            self._maybe_tick(self._now())
            self._dispatch()
            if self._pending:
                self._harvest(
                    timeout=self._tick_clamped_wait(
                        self._POLL_S, self._now()
                    )
                )
                continue
            if len(self.queues) == 0:
                if not stalled_once and self.stall_handler is not None:
                    stalled_once = True
                    if self.stall_handler():
                        continue
                raise SchedulerError(
                    f"process engine stalled at {description}"
                )
        # Same rule as the threaded engine: a due tick is delivered at
        # barrier exit even when the wait loop never ran.
        self._maybe_tick(self._now())
        if (
            self._exporter is not None
            and not self._pending
            and len(self.queues) == 0
        ):
            # Quiescent barrier: no task can still reference a
            # promotion's segment, so sync writable promotions back
            # into their original buffers and recycle the segments.
            self._exporter.end_phase()
        return self._now()

    def finish(self) -> tuple["ExecutionTrace", float]:
        self.run_until(
            lambda: not self._pending and len(self.queues) == 0,
            "engine shutdown",
        )
        if self._pool is not None:
            # Shared pools stay warm for the next run (sweep cells, the
            # serving layer); private pools are torn down with the run.
            if not self.reuse_pool:
                self._pool.shutdown(wait=True)
            self._pool = None
        # As on the threaded engine: nothing calls back any more.
        self.on_task_finished = self.stall_handler = self._tick_cb = None
        return self.trace, max(self.trace.makespan, self._now())

    # -- reporting ---------------------------------------------------------
    @property
    def accounting(self) -> AccountingCore:
        return self._accounting

    @property
    def n_workers(self) -> int:
        return self.queues.n_workers

    @property
    def queue_stats(self):
        return self.queues.stats

    @property
    def data_plane_stats(self):
        """Byte accounting of the shm data plane (None when off)."""
        return (
            self._exporter.stats if self._exporter is not None else None
        )
