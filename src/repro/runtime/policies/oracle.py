"""Clairvoyant oracle policy (idealized upper bound; not in the paper).

The paper motivates both GTB and LQH as *estimators* of the ideal
decision: "In the ideal case, the runtime system knows this information
[task count and significance distribution] in advance.  Then, it is
straightforward to execute approximately those tasks with the lowest
significance in each task group" (section 3.2).

:class:`OraclePolicy` realizes that ideal for analysis purposes: like
Max-Buffer GTB it sees the whole group before deciding, but it charges
*no* buffering or sorting overhead and does not delay task issue — as if
the distribution had been known ahead of time.  It is the natural yard-
stick for the accuracy metrics of Table 2 (the oracle has zero ratio
offset and zero inversions by construction) and for ablation benchmarks.
"""

from __future__ import annotations

import math
from collections import defaultdict

from ...registry import register
from ..errors import PolicyError
from ..task import ExecutionKind, Task, TaskState
from .base import Policy, PolicyOverheads, resolve_drop

__all__ = ["OraclePolicy"]


@register("policy", "oracle")
class OraclePolicy(Policy):
    """Exact top-``R_g`` selection with zero runtime overhead."""

    name = "oracle"

    spawn_overhead_const = PolicyOverheads.SPAWN_BASE
    decide_overhead_const = 0.0

    def __init__(self) -> None:
        super().__init__()
        self._pending: dict[str | None, list[Task]] = defaultdict(list)

    def reset(self) -> None:
        self._pending.clear()

    def on_spawn(self, task: Task) -> bool:
        self._pending[task.group].append(task)
        task.state = TaskState.BUFFERED
        return True

    def on_barrier(self, group: str | None) -> None:
        groups = [group] if group is not None else list(self._pending)
        for g in groups:
            self._stamp_and_issue(g)

    def _stamp_and_issue(self, group: str | None) -> None:
        tasks = self._pending.pop(group, None)
        if not tasks:
            return
        ratio = self.scheduler.groups.get(group).ratio
        ordered = sorted(tasks, key=lambda t: t.significance, reverse=True)
        quota = math.ceil(ratio * len(ordered) - 1e-12)
        accurate = 0
        for task in ordered:
            forced = self.forced_kind(task)
            if forced is not None:
                task.decision = forced
                if forced is ExecutionKind.ACCURATE:
                    accurate += 1
                continue
            if accurate < quota:
                task.decision = ExecutionKind.ACCURATE
                accurate += 1
            else:
                task.decision = resolve_drop(task, ExecutionKind.APPROXIMATE)
        # Clairvoyance: issue the whole group at the times they were
        # created — rewind the master clock cost-free (idealization).
        for task in tasks:
            self.scheduler.issue(task, at_creation_time=True)

    def decide(self, task: Task, worker: int) -> ExecutionKind:
        if task.decision is None:
            raise PolicyError(
                f"oracle task {task.tid} reached a worker without a stamp"
            )
        return task.decision

    def spawn_overhead(self, task: Task) -> float:
        return PolicyOverheads.SPAWN_BASE

    def decide_overhead(self, task: Task) -> float:
        return 0.0

    def describe(self) -> str:
        return "oracle (clairvoyant top-ratio selection)"
