"""Task groups: the ``label()`` / ``ratio()`` machinery.

Groups are the unit of quality control in the programming model: the
``label()`` clause assigns each task to a group, and the ``ratio()``
clause of ``#pragma omp taskwait`` instructs the runtime to execute at
least that fraction of the group's tasks accurately, preferring the most
significant ones (paper section 2).

The paper's compiler lowers the first use of a group to
``tpc_init_group()``, which creates the runtime bookkeeping and conveys
the per-group ratio; :class:`GroupRegistry` plays that role here.

:class:`GroupRecord` also accumulates the decision log that feeds the
policy-accuracy evaluation (paper Table 2): achieved ratio versus
requested ratio and the count of *significance inversions* — tasks that
ran approximately even though a strictly less significant task of the
same group ran accurately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GroupError, RatioError
from .task import ExecutionKind, Task

__all__ = ["GroupRecord", "GroupRegistry", "GLOBAL_GROUP"]

#: Implicit group holding tasks spawned without a ``label()`` clause.
GLOBAL_GROUP = "__global__"


def _check_ratio(ratio: float) -> float:
    if not 0.0 <= ratio <= 1.0:
        raise RatioError(ratio)
    return float(ratio)


@dataclass(slots=True)
class _DecisionRecord:
    """Immutable trace entry for one executed task."""

    tid: int
    significance: float
    kind: ExecutionKind


@dataclass
class GroupRecord:
    """Runtime bookkeeping for one task group (``tpc_init_group``)."""

    name: str
    ratio: float = 1.0
    #: Tasks spawned into the group so far.
    spawned: int = 0
    #: Tasks that completed (any execution kind).
    completed: int = 0
    #: Decision log, appended as tasks finish.
    decisions: list[_DecisionRecord] = field(default_factory=list)
    #: (decision-log mark, requested ratio in force) per closed epoch;
    #: lets the statistics distinguish phases (e.g. Fluidanimate's
    #: alternating accurate/approximate timesteps).
    _epoch_marks: list[tuple[int, float]] = field(default_factory=list)

    def set_ratio(self, ratio: float) -> None:
        self.ratio = _check_ratio(ratio)

    # -- live counters --------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Tasks spawned but not yet completed."""
        return self.spawned - self.completed

    def record(self, task: Task) -> None:
        """Log a finished task's decision."""
        assert task.decision is not None
        self.completed += 1
        self.decisions.append(
            _DecisionRecord(task.tid, task.significance, task.decision)
        )

    @property
    def epoch(self) -> int:
        """Barrier epochs closed so far (barriers that found no new
        decision to close do not count)."""
        return len(self._epoch_marks)

    def new_epoch(self) -> None:
        """Close the current barrier epoch (called by taskwait).

        Snapshots the ratio that was in force, so phase-structured
        programs (Jacobi's approximate warm-up, Fluidanimate's
        alternating timesteps) are judged per phase against the ratio
        each phase actually requested.  A barrier that finds no
        decision since the previous mark closes nothing and stores
        nothing: the statistics only ever read non-empty slices.
        """
        marks = self._epoch_marks
        mark = len(self.decisions)
        if mark > (marks[-1][0] if marks else 0):
            marks.append((mark, self.ratio))

    # -- Table 2 statistics ----------------------------------------------
    def _epoch_slices(self) -> list[tuple[list[_DecisionRecord], float]]:
        """(decision slice, requested ratio) per barrier epoch."""
        slices: list[tuple[list[_DecisionRecord], float]] = []
        start = 0
        marks = list(self._epoch_marks)
        if not marks or marks[-1][0] != len(self.decisions):
            marks.append((len(self.decisions), self.ratio))
        for mark, ratio in marks:
            if mark > start:
                slices.append((self.decisions[start:mark], ratio))
            start = mark
        return slices

    @property
    def accurate_count(self) -> int:
        return sum(
            1 for d in self.decisions if d.kind is ExecutionKind.ACCURATE
        )

    @property
    def approx_count(self) -> int:
        return sum(
            1 for d in self.decisions if d.kind is ExecutionKind.APPROXIMATE
        )

    @property
    def dropped_count(self) -> int:
        return sum(
            1 for d in self.decisions if d.kind is ExecutionKind.DROPPED
        )

    @property
    def achieved_ratio(self) -> float:
        """Fraction of completed tasks that ran accurately."""
        if not self.decisions:
            return 1.0
        return self.accurate_count / len(self.decisions)

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
        slices = self._epoch_slices()
        if not slices:
            return 0.0
        offsets = []
        for sl, epoch_ratio in slices:
            req = epoch_ratio if requested is None else requested
            acc = sum(1 for d in sl if d.kind is ExecutionKind.ACCURATE)
            offsets.append(abs(req - acc / len(sl)))
        return sum(offsets) / len(offsets)

    def inversion_count(self) -> int:
        """Tasks executed approximately although a strictly less
        significant task of the same epoch executed accurately.

        This is the paper's "% Inversed Significance Tasks" numerator: an
        ideal policy approximates only the *least* significant tasks, so
        any approximated task whose significance exceeds the significance
        of some accurately-executed task witnesses an inversion.
        """
        total = 0
        for sl, _ratio in self._epoch_slices():
            acc_sigs = sorted(
                d.significance
                for d in sl
                if d.kind is ExecutionKind.ACCURATE
            )
            if not acc_sigs:
                continue
            min_acc = acc_sigs[0]
            total += sum(
                1
                for d in sl
                if d.kind is not ExecutionKind.ACCURATE
                and d.significance > min_acc
            )
        return total

    def inversion_pct(self) -> float:
        """Inversions as a percentage of completed tasks (Table 2)."""
        if not self.decisions:
            return 0.0
        return 100.0 * self.inversion_count() / len(self.decisions)


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
        groups = [g for g in self._groups.values() if g.decisions]
        if not groups:
            return 0.0
        return sum(g.ratio_offset() for g in groups) / len(groups)

    def total_inversion_pct(self) -> float:
        """Significance-inverted tasks as % of all completed tasks."""
        total = sum(len(g.decisions) for g in self._groups.values())
        if total == 0:
            return 0.0
        inv = sum(g.inversion_count() for g in self._groups.values())
        return 100.0 * inv / total
