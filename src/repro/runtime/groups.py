"""Task groups: the ``label()`` / ``ratio()`` machinery.

Groups are the unit of quality control in the programming model: the
``label()`` clause assigns each task to a group, and the ``ratio()``
clause of ``#pragma omp taskwait`` instructs the runtime to execute at
least that fraction of the group's tasks accurately, preferring the most
significant ones (paper section 2).

The paper's compiler lowers the first use of a group to
``tpc_init_group()``, which creates the runtime bookkeeping and conveys
the per-group ratio; :class:`GroupRegistry` plays that role here.

:class:`GroupRecord` also keeps the tallies that feed the
policy-accuracy evaluation (paper Table 2): achieved ratio versus
requested ratio and the count of *significance inversions* — tasks that
ran approximately even though a strictly less significant task of the
same epoch ran accurately.  Those statistics are per barrier epoch, so
a closed epoch is kept as one :class:`EpochTally`, never as a log of its
tasks: a group's memory does not grow with the tasks it ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import GroupError, RatioError
from .task import ExecutionKind, Task

__all__ = ["EpochTally", "GroupRecord", "GroupRegistry", "GLOBAL_GROUP"]

#: Implicit group holding tasks spawned without a ``label()`` clause.
GLOBAL_GROUP = "__global__"

_ACCURATE = ExecutionKind.ACCURATE
_APPROXIMATE = ExecutionKind.APPROXIMATE


def _check_ratio(ratio: float) -> float:
    if not 0.0 <= ratio <= 1.0:
        raise RatioError(ratio)
    return float(ratio)


class EpochTally(NamedTuple):
    """One barrier epoch of a group, as the Table 2 statistics see it."""

    #: Tasks that completed in the epoch (any execution kind).
    tasks: int
    #: Of those, tasks that ran accurately.
    accurate: int
    #: Non-accurate tasks more significant than the epoch's least
    #: significant accurate task.
    inversions: int
    #: The requested ratio in force when the epoch closed.
    ratio: float


@dataclass(slots=True)
class GroupRecord:
    """Runtime bookkeeping for one task group (``tpc_init_group``)."""

    name: str
    ratio: float = 1.0
    #: Tasks spawned into the group so far.
    spawned: int = 0
    #: Tasks that completed (any execution kind).
    completed: int = 0
    accurate_count: int = 0
    approx_count: int = 0
    dropped_count: int = 0
    #: One tally per closed barrier epoch; lets the statistics
    #: distinguish phases (e.g. Fluidanimate's alternating
    #: accurate/approximate timesteps).
    _closed: list[EpochTally] = field(default_factory=list)
    # The open epoch: its least significant accurate task, and the
    # significances of its non-accurate tasks (which it needs to count
    # inversions once that minimum is final).  Its task and accurate
    # counts are the group totals minus the closed epochs' sums.
    _open_min_accurate: float = math.inf
    _open_inexact: list[float] = field(default_factory=list)
    _closed_tasks: int = 0
    _closed_accurate: int = 0

    def set_ratio(self, ratio: float) -> None:
        self.ratio = _check_ratio(ratio)

    # -- live counters --------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Tasks spawned but not yet completed."""
        return self.spawned - self.completed

    def record(self, task: Task) -> None:
        """Tally a finished task's decision into the open epoch."""
        kind = task.decision
        assert kind is not None
        self.completed += 1
        if kind is _ACCURATE:
            self.accurate_count += 1
            if task.significance < self._open_min_accurate:
                self._open_min_accurate = task.significance
            return
        if kind is _APPROXIMATE:
            self.approx_count += 1
        else:
            self.dropped_count += 1
        self._open_inexact.append(task.significance)

    @property
    def epoch(self) -> int:
        """Barrier epochs closed so far (barriers that found no new
        decision to close do not count)."""
        return len(self._closed)

    def _open_tally(self) -> EpochTally | None:
        """The open epoch as a tally (``None`` when it has no task)."""
        tasks = self.completed - self._closed_tasks
        if not tasks:
            return None
        floor = self._open_min_accurate
        return EpochTally(
            tasks,
            self.accurate_count - self._closed_accurate,
            sum(1 for sig in self._open_inexact if sig > floor),
            self.ratio,
        )

    def new_epoch(self) -> None:
        """Close the current barrier epoch (called by taskwait).

        Snapshots the ratio that was in force, so phase-structured
        programs (Jacobi's approximate warm-up, Fluidanimate's
        alternating timesteps) are judged per phase against the ratio
        each phase actually requested.  A barrier that finds no
        decision since the previous one closes nothing and stores
        nothing.
        """
        tally = self._open_tally()
        if tally is None:
            return
        self._closed.append(tally)
        self._closed_tasks = self.completed
        self._closed_accurate = self.accurate_count
        self._open_min_accurate = math.inf
        self._open_inexact = []

    # -- Table 2 statistics ----------------------------------------------
    def epoch_tallies(self) -> list[EpochTally]:
        """One tally per barrier epoch, the open one last if it has
        tasks — the material every statistic below is computed from."""
        tallies = list(self._closed)
        tally = self._open_tally()
        if tally is not None:
            tallies.append(tally)
        return tallies

    @property
    def achieved_ratio(self) -> float:
        """Fraction of completed tasks that ran accurately."""
        if not self.completed:
            return 1.0
        return self.accurate_count / self.completed

    def ratio_offset(self, requested: float | None = None) -> float:
        """``|requested - achieved|`` per epoch, averaged (Table 2).

        The paper computes the offset per group; within a group we average
        over barrier epochs so that phase-structured programs (Kmeans
        iterations, Fluidanimate timesteps) are judged against the ratio
        that was actually in force during each phase.  ``requested``
        overrides every epoch's snapshot when given.
        """
        if requested is not None:
            _check_ratio(requested)
        tallies = self.epoch_tallies()
        if not tallies:
            return 0.0
        offsets = [
            abs(
                (t.ratio if requested is None else requested)
                - t.accurate / t.tasks
            )
            for t in tallies
        ]
        return sum(offsets) / len(offsets)

    def inversion_count(self) -> int:
        """Tasks executed approximately although a strictly less
        significant task of the same epoch executed accurately.

        This is the paper's "% Inversed Significance Tasks" numerator: an
        ideal policy approximates only the *least* significant tasks, so
        any approximated task whose significance exceeds the significance
        of some accurately-executed task witnesses an inversion.
        """
        return sum(t.inversions for t in self.epoch_tallies())

    def inversion_pct(self) -> float:
        """Inversions as a percentage of completed tasks (Table 2)."""
        if not self.completed:
            return 0.0
        return 100.0 * self.inversion_count() / self.completed


class GroupRegistry:
    """All task groups of one runtime instance.

    Mirrors the paper's per-group support structures: created lazily on
    first use (``tpc_init_group``), addressable by label, with a distinct
    implicit group for unlabelled tasks.
    """

    def __init__(self) -> None:
        self._groups: dict[str, GroupRecord] = {}
        #: Groups spawned into since their last barrier: the only ones
        #: a global barrier has an epoch to close for.  Spawn-side
        #: (master thread) state, like the spawn path that feeds it.
        self._live: dict[str, GroupRecord] = {}

    def get(self, name: str | None, create: bool = True) -> GroupRecord:
        """Look up (and lazily create) the group for ``name``."""
        label = GLOBAL_GROUP if name is None else name
        rec = self._groups.get(label)
        if rec is None:
            if not create:
                raise GroupError(f"unknown task group {label!r}")
            rec = GroupRecord(label)
            self._groups[label] = rec
        return rec

    def spawning(self, name: str | None) -> GroupRecord:
        """The group ``name`` for a spawn: :meth:`get`, plus the group
        joins the live set the next barrier over it closes."""
        rec = self.get(name)
        self._live[rec.name] = rec
        return rec

    def close_epochs(self, name: str | None = None) -> int:
        """Close the barrier epoch of group ``name`` — or, on a global
        barrier (``None``), of every live group.  Returns the number of
        groups visited, which is independent of how many groups the
        registry holds."""
        if name is not None:
            self._live.pop(name, None)
            self.get(name).new_epoch()
            return 1
        live, self._live = self._live, {}
        for rec in live.values():
            rec.new_epoch()
        return len(live)

    def init_group(self, name: str, ratio: float = 1.0) -> GroupRecord:
        """Explicit ``tpc_init_group`` — create/configure a group ratio."""
        rec = self.get(name)
        rec.set_ratio(ratio)
        return rec

    def set_ratio_all(self, ratio: float) -> None:
        """Apply one ratio globally: every existing group plus the
        implicit group (paper section 2: the ratio may be set "either
        globally or in a specific group").  The single home of the
        broadcast semantics, shared by ``taskwait(ratio=...)`` and the
        governor's :meth:`~repro.runtime.policies.base.Policy
        .set_ratio`.
        """
        self.get(None).set_ratio(ratio)
        for rec in self:
            rec.set_ratio(ratio)

    def __contains__(self, name: str) -> bool:
        return name in self._groups

    def __iter__(self):
        return iter(self._groups.values())

    def __len__(self) -> int:
        return len(self._groups)

    def names(self) -> list[str]:
        return list(self._groups)

    def outstanding(self, name: str | None = None) -> int:
        """Outstanding tasks in one group, or across all groups."""
        if name is not None:
            return self.get(name, create=False).outstanding
        return sum(g.outstanding for g in self._groups.values())

    # -- aggregate Table 2 metrics ---------------------------------------
    def mean_ratio_offset(self) -> float:
        """Average ratio offset over groups (the paper's ``ratio_diff``)."""
        groups = [g for g in self._groups.values() if g.completed]
        if not groups:
            return 0.0
        return sum(g.ratio_offset() for g in groups) / len(groups)

    def total_inversion_pct(self) -> float:
        """Significance-inverted tasks as % of all completed tasks."""
        total = sum(g.completed for g in self._groups.values())
        if total == 0:
            return 0.0
        inv = sum(g.inversion_count() for g in self._groups.values())
        return 100.0 * inv / total
