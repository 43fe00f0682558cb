"""Run reports: everything an experiment needs from one execution.

A :class:`RunReport` is produced by
:meth:`repro.runtime.scheduler.Scheduler.finish` and carries the three
quantities the paper's Figure 2 plots — execution time, energy, and the
decision mix that determines quality — plus the policy-accuracy metrics
of Table 2 and the queue/dependence counters used in tests and
ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..energy.meter import EnergyReport
from ..sim.trace import ExecutionTrace
from .dependencies import DepStats
from .groups import GroupRecord
from .queues import QueueStats
from .task import ExecutionKind

__all__ = ["GroupSummary", "RunReport"]


@dataclass(frozen=True)
class GroupSummary:
    """Decision statistics for one task group (Table 2 inputs)."""

    name: str
    requested_ratio: float
    spawned: int
    accurate: int
    approximate: int
    dropped: int
    achieved_ratio: float
    ratio_offset: float
    inversion_pct: float

    @classmethod
    def from_record(cls, rec: GroupRecord) -> "GroupSummary":
        return cls(
            name=rec.name,
            requested_ratio=rec.ratio,
            spawned=rec.spawned,
            accurate=rec.accurate_count,
            approximate=rec.approx_count,
            dropped=rec.dropped_count,
            achieved_ratio=rec.achieved_ratio,
            ratio_offset=rec.ratio_offset(),
            inversion_pct=rec.inversion_pct(),
        )


@dataclass
class RunReport:
    """Aggregated outcome of a complete runtime execution."""

    policy: str
    n_workers: int
    makespan_s: float
    energy: EnergyReport
    tasks_total: int
    tasks_by_kind: dict[ExecutionKind, int]
    groups: dict[str, GroupSummary]
    queue_stats: QueueStats
    dep_stats: DepStats
    #: Host wall-clock seconds spent inside task bodies (diagnostic).
    host_seconds: float = 0.0
    #: The run's trace, kept for Gantt rendering and DVFS replay: every
    #: segment for a batch run, the most recent
    #: :data:`~repro.serve.rounds.TRACE_TAIL` for a long-lived service
    #: (whose folded prefix survives only in the trace's totals).
    trace: ExecutionTrace | None = field(default=None, repr=False)

    # -- Figure 2 convenience ------------------------------------------
    @property
    def energy_j(self) -> float:
        return self.energy.total_j

    @property
    def accurate_tasks(self) -> int:
        return self.tasks_by_kind.get(ExecutionKind.ACCURATE, 0)

    @property
    def approximate_tasks(self) -> int:
        return self.tasks_by_kind.get(ExecutionKind.APPROXIMATE, 0)

    @property
    def dropped_tasks(self) -> int:
        return self.tasks_by_kind.get(ExecutionKind.DROPPED, 0)

    # -- Table 2 convenience ---------------------------------------------
    def mean_ratio_offset(self) -> float:
        groups = [g for g in self.groups.values() if g.spawned]
        if not groups:
            return 0.0
        return sum(g.ratio_offset for g in groups) / len(groups)

    def total_inversion_pct(self) -> float:
        total = sum(
            g.accurate + g.approximate + g.dropped
            for g in self.groups.values()
        )
        if total == 0:
            return 0.0
        weighted = sum(
            g.inversion_pct
            * (g.accurate + g.approximate + g.dropped)
            / 100.0
            for g in self.groups.values()
        )
        return 100.0 * weighted / total

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        kinds = ", ".join(
            f"{k.value}={v}" for k, v in self.tasks_by_kind.items() if v
        )
        lines = [
            f"policy={self.policy} workers={self.n_workers}",
            f"makespan={self.makespan_s:.6f}s "
            f"energy={self.energy_j:.3f}J "
            f"avg_power={self.energy.average_power_w:.1f}W",
            f"tasks: total={self.tasks_total} ({kinds})",
        ]
        for g in self.groups.values():
            lines.append(
                f"  group {g.name}: requested={g.requested_ratio:.2f} "
                f"achieved={g.achieved_ratio:.3f} "
                f"offset={g.ratio_offset:.3f} "
                f"inversions={g.inversion_pct:.2f}%"
            )
        return "\n".join(lines)
