"""Global Task Buffering (GTB) — paper section 3.3, Listing 4.

"The master thread buffers a number of tasks as it creates them,
postponing the issue of the tasks in the worker queues.  When the buffer
is full, or when a call to tpc_wait_all() or tpc_wait_group() is made,
the tasks in the buffer are analyzed and sorted by significance.  Given a
per-group ratio of accurate tasks R_g, and a number of B tasks in the
buffer, then the R_g * B tasks with the highest significance level are
executed accurately."

Buffers are replicated per task group, exactly as in Listing 4 ("The
variables described ... are replicated over all task groups").

Two flavours appear in the evaluation:

* ``GTB(buffer_size=B)`` — the user-defined window; tasks start executing
  before the group is fully spawned, so decisions may be locally
  suboptimal but issue latency stays low.
* ``GTB(buffer_size=None)`` (the paper's *Max Buffer* / *Max Window*
  variant, :func:`gtb_max_buffer`) — buffer until the barrier, which
  yields the fully correct accurate/approximate split at the price of
  delaying all issues behind task creation (visible as overhead for
  fine-grained tasks, cf. Figure 4, DCT).
"""

from __future__ import annotations

import math
from collections import defaultdict

from ...registry import register
from ..errors import PolicyError
from ..task import ExecutionKind, Task, TaskState
from .base import Policy, PolicyOverheads, resolve_drop

__all__ = ["GlobalTaskBuffering", "gtb_max_buffer"]


@register("policy", "gtb")
class GlobalTaskBuffering(Policy):
    """Buffer-and-sort policy choosing task accuracy globally (per group).

    Parameters
    ----------
    buffer_size:
        Number of tasks buffered per group before a flush is forced.
        ``None`` buffers without bound until the next barrier (the
        paper's *Max Buffer* configuration).
    """

    spawn_overhead_const = (
        PolicyOverheads.SPAWN_BASE + PolicyOverheads.BUFFER_APPEND
    )
    decide_overhead_const = PolicyOverheads.STAMP_READ

    def __init__(self, buffer_size: int | None = 32) -> None:
        super().__init__()
        if buffer_size is not None and buffer_size < 1:
            raise PolicyError(
                f"GTB buffer size must be >= 1 or None, got {buffer_size}"
            )
        self.buffer_size = buffer_size
        self.name = "GTB-MaxBuffer" if buffer_size is None else "GTB"
        self._buffers: dict[str | None, list[Task]] = defaultdict(list)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._buffers.clear()

    def on_spawn(self, task: Task) -> bool:
        """Buffer the task; flush its group's buffer when full."""
        buf = self._buffers[task.group]
        buf.append(task)
        task.state = TaskState.BUFFERED
        if self.buffer_size is not None and len(buf) >= self.buffer_size:
            self._flush(task.group)
        return True

    def on_barrier(self, group: str | None) -> None:
        """Flush the named group's buffer (or all buffers on a global wait)."""
        if group is not None:
            self._flush(group)
        else:
            for g in list(self._buffers):
                self._flush(g)

    # ------------------------------------------------------------------
    def _flush(self, group: str | None) -> None:
        """Sort buffered tasks, stamp decisions, and issue them.

        Implements Listing 4's ``flush_buffer``: the ``ceil(R_g * B)``
        most significant tasks are stamped accurate, the rest
        approximate.  Tasks whose significance is the forced value 1.0
        count toward (and may exceed) the accurate quota; forced-0.0
        tasks never consume quota.
        """
        # Pop, don't empty: a long-lived service spawns one group per
        # job, and a global barrier walks every key still in here.
        buf = self._buffers.pop(group, None)
        if not buf:
            return

        ratio = self.scheduler.groups.get(group).ratio
        # Stable sort: ties keep spawn order, matching the deterministic
        # behaviour the paper relies on for Kmeans ("GTB policies behave
        # deterministically, therefore always selecting tasks
        # corresponding to specific objects for accurate executions").
        ordered = sorted(
            buf, key=lambda t: t.significance, reverse=True
        )
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
                task.decision = resolve_drop(
                    task, ExecutionKind.APPROXIMATE
                )

        # Charge the master for the analyze+sort pass, then issue in the
        # original spawn order (the queue fabric round-robins them); the
        # batched issue admits the whole flush in one engine event.
        self.scheduler.charge_master(self._sort_work(len(buf)))
        self.scheduler.issue_many(buf)

    @staticmethod
    def _sort_work(n: int) -> float:
        if n <= 1:
            return PolicyOverheads.SORT_PER_ELEMENT
        return PolicyOverheads.SORT_PER_ELEMENT * n * math.log2(n)

    # ------------------------------------------------------------------
    def decide(self, task: Task, worker: int) -> ExecutionKind:
        """Decisions are pre-stamped at flush time; just read the stamp."""
        if task.decision is None:
            raise PolicyError(
                f"GTB task {task.tid} reached a worker without a stamp"
            )
        return task.decision

    # -- overhead model ----------------------------------------------------
    def spawn_overhead(self, task: Task) -> float:
        return PolicyOverheads.SPAWN_BASE + PolicyOverheads.BUFFER_APPEND

    def decide_overhead(self, task: Task) -> float:
        return PolicyOverheads.STAMP_READ

    def describe(self) -> str:
        b = "max" if self.buffer_size is None else str(self.buffer_size)
        return f"{self.name}(B={b})"


@register("policy", "gtb-max", "gtbmax", "max-buffer", "gtb-mb")
def gtb_max_buffer() -> GlobalTaskBuffering:
    """The paper's *Max Buffer* GTB: flush only at synchronization barriers."""
    return GlobalTaskBuffering(buffer_size=None)
