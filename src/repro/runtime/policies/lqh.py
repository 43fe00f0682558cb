"""Local Queue History (LQH) — paper section 3.4.

"The local queue history policy avoids the step of task buffering.
Tasks are issued to worker queues immediately as they are created.  The
worker decides whether to approximate a task right before it starts its
execution, based on the distribution of significance levels of the tasks
executed so far, and the target ratio of accurate tasks."

Each worker keeps, per task group, a histogram over the runtime's 101
discrete significance levels.  With ``t_g(s)`` the number of tasks
observed with significance ``<= s`` and ``R_g`` the target accurate
ratio, the paper's rule executes a level-``s`` task accurately iff

    t_g(s) > (1 - R_g) * t_g(1.0)

i.e. iff the task is *not* inside the bottom ``(1-R_g)`` quantile of the
significance distribution seen so far.

Within a single significance level the paper's inequality is all-or-
nothing: a group whose tasks all share one level would either always or
never satisfy it, while the evaluation clearly shows LQH approximating a
fraction of such groups (Kmeans, Jacobi, Fluidanimate all use uniform
significance; Table 2 still reports nonzero LQH ratio offsets).  We
therefore resolve the straddling level with a deterministic within-level
credit counter: tasks of the level that crosses the quantile boundary
alternate between accurate and approximate so that the achieved ratio
converges to ``R_g``.  Outside the straddling level the rule is exactly
the paper's inequality.  Like the paper's implementation, the scheme
undershoots slightly on cold histograms (cf. footnote 2: "4.6% and 5.1%
more than requested tasks are approximated" for MC).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...registry import register
from ..task import (
    SIGNIFICANCE_LEVELS,
    ExecutionKind,
    Task,
)
from .base import Policy, PolicyOverheads, resolve_drop

__all__ = ["LocalQueueHistory", "GroupHistory"]


@dataclass
class GroupHistory:
    """Per-worker, per-group execution history (the ``t_g`` statistics).

    ``counts``/``approx_counts`` are the readable histograms; a Fenwick
    tree shadows ``counts`` so the quantile query of every decision
    (:meth:`cumulative_below`) costs O(log L) instead of O(L) over the
    101 levels.  Mutate the histogram through :meth:`observe` only —
    writing ``counts`` directly would desynchronize the tree.
    """

    #: counts[s] = number of tasks executed so far at discrete level s.
    counts: list[int] = field(
        default_factory=lambda: [0] * SIGNIFICANCE_LEVELS
    )
    #: Tasks approximated so far at each level (within-level credit).
    approx_counts: list[int] = field(
        default_factory=lambda: [0] * SIGNIFICANCE_LEVELS
    )
    total: int = 0
    #: Fenwick (binary indexed) tree over ``counts``, 1-based.
    _tree: list[int] = field(
        default_factory=lambda: [0] * (SIGNIFICANCE_LEVELS + 1),
        repr=False,
    )

    def cumulative_below(self, level: int) -> int:
        """``t_g(level - 1)``: tasks observed strictly below ``level``."""
        i = level if level < SIGNIFICANCE_LEVELS else SIGNIFICANCE_LEVELS
        if i <= 0:
            return 0
        tree = self._tree
        out = 0
        while i > 0:
            out += tree[i]
            i -= i & -i
        return out

    def observe(self, level: int, kind: ExecutionKind) -> None:
        """Update statistics after a decision ("updated for every
        executed task")."""
        self.counts[level] += 1
        self.total += 1
        if kind is not ExecutionKind.ACCURATE:
            self.approx_counts[level] += 1
        i = level + 1
        tree = self._tree
        while i <= SIGNIFICANCE_LEVELS:
            tree[i] += 1
            i += i & -i


@register("policy", "lqh")
class LocalQueueHistory(Policy):
    """History-driven worker-local accurate/approximate decisions."""

    name = "LQH"

    spawn_overhead_const = PolicyOverheads.SPAWN_BASE
    decide_overhead_const = PolicyOverheads.HISTOGRAM_UPDATE

    def __init__(self) -> None:
        super().__init__()
        # _histories[worker][group] -> GroupHistory
        self._histories: list[dict[str | None, GroupHistory]] = []

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._histories = []

    def make_worker_state(self, n_workers: int) -> None:
        self._histories = [dict() for _ in range(n_workers)]

    def history(self, worker: int, group: str | None) -> GroupHistory:
        """The (lazily created) history a worker keeps for a group."""
        if not self._histories:
            # Engine did not pre-size (e.g. sequential debugging engine):
            # grow on demand.
            self._histories = [dict() for _ in range(worker + 1)]
        while worker >= len(self._histories):
            self._histories.append(dict())
        hist = self._histories[worker].get(group)
        if hist is None:
            hist = GroupHistory()
            self._histories[worker][group] = hist
        return hist

    def on_group_retired(self, group: str | None) -> None:
        """Release every worker's history of a finished group (one
        :class:`GroupHistory` per worker per served job otherwise)."""
        for histories in self._histories:
            histories.pop(group, None)

    # ------------------------------------------------------------------
    def decide(self, task: Task, worker: int) -> ExecutionKind:
        hist = self.history(worker, task.group)
        forced = self.forced_kind(task)
        if forced is not None:
            hist.observe(task.level, forced)
            return forced

        ratio = self.scheduler.groups.get(task.group).ratio
        kind = self._classify(hist, task.level, ratio)
        kind = resolve_drop(task, kind)
        hist.observe(task.level, kind)
        return kind

    @staticmethod
    def _classify(
        hist: GroupHistory, level: int, ratio: float
    ) -> ExecutionKind:
        """The paper's quantile rule + within-level credit tie-breaking.

        ``quota`` is the number of observations (including the current
        task) the approximate region may hold.  A task whose whole level
        lies below the quota line is approximated; one whose level lies
        above runs accurately; the straddling level admits only as many
        approximations as fit under the line.
        """
        n_inclusive = hist.total + 1  # count the task being decided
        quota = (1.0 - ratio) * n_inclusive
        below = hist.cumulative_below(level)
        if below >= quota:
            # Even the tasks strictly below this level exhaust the
            # approximate budget: t_g(s) > (1-R_g) t_g(1.0) holds.
            return ExecutionKind.ACCURATE
        level_total = hist.counts[level] + 1
        if below + level_total <= quota:
            # The entire level fits in the approximate region.
            return ExecutionKind.APPROXIMATE
        # Straddling level: approximate only while the level's credit
        # (approximations already spent at this level) stays under the
        # remaining budget.
        budget_in_level = quota - below
        if hist.approx_counts[level] < budget_in_level:
            return ExecutionKind.APPROXIMATE
        return ExecutionKind.ACCURATE

    # -- overhead model ----------------------------------------------------
    def spawn_overhead(self, task: Task) -> float:
        # No buffering: spawn is the bare descriptor + enqueue cost.
        return PolicyOverheads.SPAWN_BASE

    def decide_overhead(self, task: Task) -> float:
        # "The overhead ... is the bookkeeping of the statistics that
        # form the execution history of a group ... every time a task is
        # executed" (section 3.4).
        return PolicyOverheads.HISTOGRAM_UPDATE

    def describe(self) -> str:
        return "LQH"
