"""Policy interface: deciding accurate vs. approximate execution.

The runtime's job is "to selectively execute a subset of the tasks
approximately while respecting the constraints given by the programmer"
(paper section 3.2).  A :class:`Policy` observes tasks at two points:

* **spawn time** (master thread) — :meth:`Policy.on_spawn` may absorb the
  task into a buffer (GTB) instead of letting the scheduler issue it;
  :meth:`Policy.on_barrier` flushes such buffers.
* **execution time** (worker) — :meth:`Policy.decide` chooses
  :class:`~repro.runtime.task.ExecutionKind` for tasks that were not
  pre-stamped at spawn time (LQH).

Policies also expose an *overhead model*: abstract work units charged to
the master per spawned/flushed task and to the worker per decision.  The
simulated engine turns these into virtual time, which is what the paper's
Figure 4 measures (policy overhead relative to a significance-agnostic
runtime).

Special significance values (paper section 2): ``1.0`` forces accurate
execution and ``0.0`` forces approximate execution, unconditionally.
Every policy honours them through :meth:`Policy.resolve_special` /
:func:`resolve_drop`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from ..errors import PolicyError
from ..task import ExecutionKind, Task

if TYPE_CHECKING:  # pragma: no cover
    from ..scheduler import Scheduler

__all__ = ["Policy", "PolicyOverheads", "resolve_drop"]


def resolve_drop(task: Task, kind: ExecutionKind) -> ExecutionKind:
    """Turn APPROXIMATE into DROPPED for tasks without an ``approxfun``.

    Paper section 2: "If a task is selected by the runtime system to be
    executed approximately, and the programmer has not supplied an
    approxfun version, it is simply dropped by the runtime."
    """
    if kind is ExecutionKind.APPROXIMATE and task.droppable:
        return ExecutionKind.DROPPED
    return kind


class PolicyOverheads:
    """Abstract work units modelling a policy's bookkeeping costs.

    Calibrated so that, on the default machine model, the significance-
    aware runtime adds the low-single-digit-percent overheads reported in
    the paper's Figure 4 (worst case ~7% for DCT under GTB Max Buffer).
    """

    #: Master-side work to create + enqueue one task descriptor
    #: (~50 ns at 2 GOPS — BDDT-class task creation).
    SPAWN_BASE = 100.0
    #: Extra master-side work to append a task to a GTB buffer.
    BUFFER_APPEND = 20.0
    #: Master-side work per element for the GTB sort (times B log2 B).
    SORT_PER_ELEMENT = 5.0
    #: Worker-side work to update the LQH histogram and take a decision.
    HISTOGRAM_UPDATE = 60.0
    #: Worker-side work to read a pre-stamped decision.
    STAMP_READ = 8.0


class Policy(abc.ABC):
    """Base class for significance-aware execution policies."""

    #: Short identifier used in reports/figures (e.g. ``"GTB"``).
    name: str = "policy"

    #: Precomputed decision table for the overhead model: when a policy's
    #: per-task overhead is a constant (true for every built-in policy),
    #: it declares the constant here and the scheduler/engine charge it
    #: directly instead of calling :meth:`spawn_overhead` /
    #: :meth:`decide_overhead` once per task on the hot path.  ``None``
    #: (the conservative default for subclasses) means "call the method".
    spawn_overhead_const: float | None = None
    decide_overhead_const: float | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        """Keep the overhead constants honest across subclassing.

        A subclass that overrides :meth:`spawn_overhead` /
        :meth:`decide_overhead` without re-declaring the matching
        ``*_const`` would otherwise inherit a constant from its parent
        (e.g. ``GlobalTaskBuffering``) and the engines would silently
        skip the override.  Overriding the method resets the inherited
        constant to ``None`` unless the subclass sets it explicitly.
        """
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        if "spawn_overhead" in own and "spawn_overhead_const" not in own:
            cls.spawn_overhead_const = None
        if "decide_overhead" in own and "decide_overhead_const" not in own:
            cls.decide_overhead_const = None

    def __init__(self) -> None:
        self._scheduler: "Scheduler | None" = None

    # -- lifecycle -----------------------------------------------------
    def attach(self, scheduler: "Scheduler") -> None:
        """Bind the policy to a scheduler (gives access to groups/issue)."""
        self._scheduler = scheduler

    def detach(self) -> None:
        """Unbind from a finished scheduler (whose policy points here),
        so the finished run is freed without the cycle collector."""
        self._scheduler = None

    @property
    def scheduler(self) -> "Scheduler":
        if self._scheduler is None:
            raise PolicyError(f"{self.name} policy is not attached")
        return self._scheduler

    def reset(self) -> None:
        """Clear per-run state (buffers, histograms)."""

    def make_worker_state(self, n_workers: int) -> None:
        """Allocate per-worker state; called when the engine starts."""

    # -- master-side hooks ----------------------------------------------
    def on_spawn(self, task: Task) -> bool:
        """Observe a freshly spawned task.

        Return ``True`` when the policy absorbed the task (it will issue
        it later itself, e.g. after buffering); ``False`` when the
        scheduler should issue it immediately.
        """
        return False

    def on_spawn_many(self, tasks: list[Task]) -> list[Task]:
        """Classify a whole spawn batch in one call.

        Returns the tasks the scheduler should issue now; absorbed
        tasks (buffered by the policy) are omitted and will be issued
        by the policy itself later.  The default delegates to
        :meth:`on_spawn` per task, so buffering policies inherit
        correct batch semantics for free; override only when the
        policy can classify a batch cheaper than task-by-task.
        """
        on_spawn = self.on_spawn
        return [t for t in tasks if not on_spawn(t)]

    def on_barrier(self, group: str | None) -> None:
        """A taskwait was reached; flush any buffered tasks.

        ``group is None`` means a global barrier (flush everything).
        """

    def on_group_retired(self, group: str | None) -> None:
        """The group is quiescent and will take no more tasks
        (:meth:`Scheduler.retire_group`); drop any state kept for it.

        Buffering policies need nothing here — a flushed buffer is
        already gone; policies that learn per group across barriers
        (LQH) release what they learnt.
        """

    # -- online control surface --------------------------------------------
    def set_ratio(self, ratio: float, group: str | None = None) -> None:
        """Adjust the target accurate-task ratio while the run executes.

        The actuation half of the paper's open control loop: a
        controller (the :class:`~repro.tuning.governor
        .EnergyBudgetGovernor`) observes energy/quality feedback and
        turns this knob online instead of requiring an offline ratio
        sweep.  ``group=None`` applies the ratio globally — every
        existing group plus the implicit group, the same semantics as
        ``taskwait(ratio=...)``.

        Takes effect at the policy's next decision point: per task for
        LQH (decisions happen at execution time), per flush for GTB
        (already-stamped tasks keep their decisions), never for the
        significance-agnostic baseline (it has no approximate path) —
        pair the governor with LQH or small-buffer GTB for tight
        control.
        """
        groups = self.scheduler.groups
        if group is not None:
            groups.get(group).set_ratio(ratio)
        else:
            groups.set_ratio_all(ratio)

    def set_dvfs(self, factor: float, at: float | None = None) -> None:
        """Adjust the engine's simulated DVFS state (clamping is the
        caller's job — pass factors from a
        :class:`~repro.energy.dvfs.FrequencyTable`)."""
        self.scheduler.engine.set_frequency_factor(factor, at)

    # -- worker-side hook -------------------------------------------------
    @abc.abstractmethod
    def decide(self, task: Task, worker: int) -> ExecutionKind:
        """Choose the execution kind for ``task`` on ``worker``.

        Called exactly once per task, right before execution.  Must
        already account for the forced values (significance 0.0 / 1.0)
        and for drop semantics (use :func:`resolve_drop`).
        """

    @staticmethod
    def forced_kind(task: Task) -> ExecutionKind | None:
        """Forced decision for the special significance values, if any."""
        if task.significance >= 1.0:
            return ExecutionKind.ACCURATE
        if task.significance <= 0.0:
            return resolve_drop(task, ExecutionKind.APPROXIMATE)
        return None

    # -- overhead model (virtual work units) -------------------------------
    def spawn_overhead(self, task: Task) -> float:
        """Master work charged when this task is spawned."""
        return PolicyOverheads.SPAWN_BASE

    def barrier_overhead(self, group: str | None) -> float:
        """Master work charged when a barrier is processed."""
        return 0.0

    def decide_overhead(self, task: Task) -> float:
        """Worker work charged when the decision for ``task`` is taken."""
        return PolicyOverheads.STAMP_READ

    # -- cosmetics ---------------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable parameterization."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.describe()}>"
