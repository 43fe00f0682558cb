"""The shared accounting core: one bookkeeping substrate for every
execution backend (DESIGN.md section 6).

Every engine — simulated, threaded, process-pool, fault-injecting —
must answer the same questions after a run: which worker ran which task
over which interval, how long the master spent on runtime bookkeeping,
how much host wall-clock went into task bodies, and what all of that
costs in energy under the machine power model.  Before this module the
trace/energy/stats plumbing was re-implemented per engine; now each
backend owns exactly one :class:`AccountingCore` and writes every
observation through it, so adding a backend cannot fork the reporting
schema.

The core is deliberately passive: it validates and records, it never
schedules.  Timestamps are whatever timeline the owning backend uses
(virtual seconds on the simulated machine, wall seconds since engine
start on the threaded and process backends) — the energy integration
and the :class:`~repro.runtime.stats.RunReport` schema are identical
either way, which is what makes backend-swapping a one-string change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..energy.dvfs import DvfsEpoch, energy_with_epochs
from ..energy.meter import EnergyReport, IntervalSampler
from ..sim.trace import ExecutionTrace, Segment
from .errors import EnergyModelError
from .stats import GroupSummary, RunReport
from .task import ExecutionKind, Task

if TYPE_CHECKING:  # pragma: no cover
    from ..energy.machine_model import MachineModel
    from .dependencies import DepStats
    from .groups import GroupRegistry
    from .queues import QueueStats

__all__ = [
    "AccountingCore",
    "AccountingShard",
    "IntervalFeedback",
    "build_run_report",
]


class AccountingShard:
    """Thread-local accounting deltas for one worker (DESIGN.md §12).

    Worker threads on the threaded engine record finished tasks here
    *without holding the engine lock*: the shard buffers
    ``(Segment, host_s)`` tuples via ``list.append`` (atomic under the
    GIL, single writer — this worker's thread), and the master drains
    them into the shared :class:`ExecutionTrace` at barrier points
    (:meth:`AccountingCore.merge_shards`).  ``ExecutionTrace.record``
    imposes no cross-segment time ordering, so deferring the merge is
    observably equivalent to recording inline — every aggregate view
    (energy, utilization, feedback snapshots) reads the trace only from
    the master's serialized context after a merge.
    """

    __slots__ = ("worker", "_buf")

    def __init__(self, worker: int) -> None:
        self.worker = worker
        self._buf: list[tuple[Segment, float | None]] = []

    def record(self, segment: Segment, host_s: float | None) -> None:
        """Buffer one finished-task observation (worker thread side)."""
        self._buf.append((segment, host_s))

    def __len__(self) -> int:
        return len(self._buf)

    def drain(self) -> list[tuple[Segment, float | None]]:
        """Take the buffered deltas (master side).

        Snapshot-then-delete keeps the drain safe against a concurrent
        ``append`` from a worker that has not parked yet: entries
        appended after the length snapshot stay in the buffer for the
        next merge instead of being lost.
        """
        buf = self._buf
        n = len(buf)
        if n == 0:
            return []
        taken = buf[:n]
        del buf[:n]
        return taken


@dataclass(frozen=True)
class IntervalFeedback:
    """One periodic feedback snapshot the accounting core emits.

    The raw observation stream of the online control loop
    (:class:`~repro.tuning.governor.EnergyBudgetGovernor`): what one
    interval cost in energy and what work retired during it, on the
    backend's own timeline.  ``busy_by_kind`` / ``tasks_by_kind`` are
    *interval deltas*; ``cumulative_j`` is exact for all recorded work
    (cumulative differencing, see
    :class:`~repro.energy.meter.IntervalSampler`).
    """

    index: int
    t0: float
    t1: float
    energy_j: float
    cumulative_j: float
    busy_s: float
    busy_by_kind: dict[ExecutionKind, float]
    tasks_by_kind: dict[ExecutionKind, int]


class AccountingCore:
    """Trace, master-time and host-time bookkeeping for one run.

    Owned by exactly one execution backend; all recording methods are
    called from whatever context the backend serializes them in (the
    event loop for the simulated machine, under the engine lock for the
    threaded engine, the master thread for the process pool).
    """

    __slots__ = (
        "trace",
        "dvfs_epochs",
        "_sampler",
        "_snap_index",
        "_snap_seg_cursor",
        "_shards",
    )

    def __init__(self, n_workers: int) -> None:
        self.trace = ExecutionTrace(n_workers)
        # Per-worker delta shards (lazily created by backends that
        # record off the engine lock; merged at barriers).
        self._shards: dict[int, AccountingShard] = {}
        #: Online DVFS switches ``(t, factor)`` in record order; empty
        #: for runs that never touch the frequency knob.  Energy
        #: attribution (:meth:`energy_report`, the feedback sampler and
        #: :func:`build_run_report`) bills each epoch at its own power
        #: point.
        self.dvfs_epochs: list[DvfsEpoch] = []
        # Feedback-snapshot cursor state (created lazily on the first
        # interval_feedback call; most runs never snapshot).
        self._sampler: IntervalSampler | None = None
        self._snap_index = 0
        self._snap_seg_cursor = 0

    # -- recording -----------------------------------------------------
    def record_task(
        self,
        task: Task,
        worker: int,
        start: float,
        end: float,
        kind: ExecutionKind,
        host_s: float | None = None,
    ) -> None:
        """Record one task execution as a busy interval on ``worker``.

        ``host_s`` is the host wall-clock spent inside the task body
        (``None`` when the backend did not measure it); it feeds the
        diagnostic ``host_seconds`` total, never the virtual timeline.
        """
        self.trace.record(
            Segment(worker, start, end, task.tid, kind, task.group)
        )
        if host_s is not None:
            self.trace.host_seconds += host_s

    def add_host_seconds(self, dt: float) -> None:
        """Account host wall-clock spent in task bodies (diagnostic)."""
        self.trace.host_seconds += dt

    def add_master_busy(self, dt: float) -> None:
        """Account ``dt`` seconds of master-side bookkeeping work."""
        self.trace.master_busy += dt

    def record_dvfs(self, t: float, factor: float) -> None:
        """Record an online frequency switch effective from ``t``.

        Epochs must be recorded in time order (the owning backend's
        serialized context guarantees this); redundant switches to the
        factor already in force are coalesced away.
        """
        if factor <= 0:
            raise EnergyModelError(
                f"frequency factor must be > 0: {factor}"
            )
        epochs = self.dvfs_epochs
        if epochs and t < epochs[-1].t:
            raise EnergyModelError(
                f"DVFS epoch at {t} precedes the last epoch "
                f"({epochs[-1].t})"
            )
        if factor == self.current_dvfs_factor:
            return
        epochs.append(DvfsEpoch(t, factor))

    # -- sharded recording (lock-free worker side) ------------------------
    def shard(self, worker: int) -> AccountingShard:
        """The delta shard for ``worker`` (created on first request).

        Handed to a worker thread once at startup; after that the
        worker records into it without synchronization and the master
        calls :meth:`merge_shards` at barriers.
        """
        try:
            return self._shards[worker]
        except KeyError:
            shard = self._shards.setdefault(
                worker, AccountingShard(worker)
            )
            return shard

    def merge_shards(self) -> int:
        """Drain every worker shard into the shared trace (master side).

        Returns the number of segments merged.  Must be called from the
        backend's serialized context — the same discipline as the
        direct recording methods — before any aggregate view (energy,
        feedback snapshot, run report) is read.
        """
        merged = 0
        for shard in self._shards.values():
            for segment, host_s in shard.drain():
                self.trace.record(segment)
                if host_s is not None:
                    self.trace.host_seconds += host_s
                merged += 1
        return merged

    @property
    def current_dvfs_factor(self) -> float:
        """The frequency factor currently in force (1.0 = nominal)."""
        return self.dvfs_epochs[-1].factor if self.dvfs_epochs else 1.0

    # -- aggregate views -------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self.trace.n_workers

    @property
    def master_busy(self) -> float:
        return self.trace.master_busy

    @property
    def host_seconds(self) -> float:
        return self.trace.host_seconds

    @property
    def makespan(self) -> float:
        """Completion time of the last recorded busy interval."""
        return self.trace.makespan

    def busy_by_worker(self) -> list[float]:
        return self.trace.busy_by_worker()

    def utilization(self) -> float:
        return self.trace.utilization()

    # -- energy attribution ----------------------------------------------
    def energy_report(
        self, machine: "MachineModel", window_s: float | None = None
    ) -> EnergyReport:
        """Busy-interval → energy attribution under the power model.

        This is the single place where a backend's busy intervals meet
        the machine power model; see
        :meth:`~repro.energy.meter.EnergyReport.from_trace` for the
        integration itself.  Runs that switched frequency online are
        integrated piecewise so every DVFS epoch is billed at its own
        power point.
        """
        if self.dvfs_epochs:
            return energy_with_epochs(
                self.trace, machine, self.dvfs_epochs, window_s
            )
        return EnergyReport.from_trace(self.trace, machine, window_s)

    # -- periodic feedback -------------------------------------------------
    def interval_feedback(
        self, machine: "MachineModel", t: float
    ) -> IntervalFeedback:
        """Emit one feedback snapshot covering ``(previous sample, t]``.

        The governor's observation channel: interval energy via the
        cumulative-differencing :class:`IntervalSampler` (DVFS-epoch
        aware), plus the busy seconds and task counts of the trace
        segments recorded since the previous snapshot.  Snapshot times
        must be monotone; the owning backend serializes calls exactly
        like the recording methods.  All snapshots of one run must pass
        the same machine-model object — the sampler's incremental
        cursor cannot be rebased onto a different power model mid-run,
        so a swap raises instead of silently corrupting the feedback
        stream (re-counting the whole trace as one interval).
        """
        if self._sampler is None:
            self._sampler = IntervalSampler(
                machine, self.trace, epochs=self.dvfs_epochs
            )
        elif self._sampler.machine is not machine:
            raise EnergyModelError(
                "interval_feedback called with a different machine "
                "model mid-run; pass the same (nominal) model object "
                "for every snapshot of a run"
            )
        interval = self._sampler.sample(t)

        busy_by_kind: dict[ExecutionKind, float] = {}
        tasks_by_kind: dict[ExecutionKind, int] = {}
        for seg in self.trace.since(self._snap_seg_cursor):
            busy_by_kind[seg.kind] = (
                busy_by_kind.get(seg.kind, 0.0) + seg.duration
            )
            tasks_by_kind[seg.kind] = tasks_by_kind.get(seg.kind, 0) + 1
        self._snap_seg_cursor = self.trace.position

        feedback = IntervalFeedback(
            index=self._snap_index,
            t0=t - interval.window_s,
            t1=t,
            energy_j=interval.total_j,
            cumulative_j=self._sampler.cumulative.total_j,
            busy_s=interval.busy_s,
            busy_by_kind=busy_by_kind,
            tasks_by_kind=tasks_by_kind,
        )
        self._snap_index += 1
        return feedback

    # -- bounded retention ---------------------------------------------------
    def fold(self, keep: int) -> int:
        """Fold all but the newest ``keep`` trace segments into the
        trace's partial sums (:meth:`ExecutionTrace.fold`); returns how
        many were folded.

        Never folds a segment the feedback stream has not consumed yet,
        and never folds once the run has DVFS epochs: their energy
        integration (:func:`~repro.energy.dvfs.energy_with_epochs`)
        replays every segment.
        """
        if self.dvfs_epochs:
            return 0
        through = self.trace.position - keep
        if self._sampler is not None:
            through = min(
                through, self._sampler.position, self._snap_seg_cursor
            )
        return self.trace.fold(through)


def build_run_report(
    *,
    policy_name: str,
    n_workers: int,
    trace: ExecutionTrace,
    makespan: float,
    machine: "MachineModel",
    groups: "GroupRegistry",
    queue_stats: "QueueStats",
    dep_stats: "DepStats",
    tasks_total: int,
    dvfs_epochs: list[DvfsEpoch] | None = None,
) -> RunReport:
    """Assemble the canonical :class:`RunReport` from accounting state.

    Every backend's run ends here (via ``Scheduler.finish``), which is
    what guarantees the acceptance property that simulated, threaded and
    process-pool executions produce *schema-identical* reports: the
    report is built from the shared trace/group/queue substrates, never
    from backend-private state.  ``dvfs_epochs`` (from the accounting
    core) switches the energy integration to the piecewise per-frequency
    power model for runs the governor downclocked mid-flight.
    """
    if dvfs_epochs:
        energy = energy_with_epochs(
            trace, machine, dvfs_epochs, window_s=makespan
        )
    else:
        energy = EnergyReport.from_trace(trace, machine, window_s=makespan)
    by_kind = trace.tasks_by_kind()
    # Dropped tasks produce no trace segment on engines that skip their
    # (empty) bodies; count them from the groups' tallies.
    recorded_drops = by_kind[ExecutionKind.DROPPED]
    logged_drops = sum(g.dropped_count for g in groups)
    by_kind[ExecutionKind.DROPPED] = max(recorded_drops, logged_drops)
    return RunReport(
        policy=policy_name,
        n_workers=n_workers,
        makespan_s=makespan,
        energy=energy,
        tasks_total=tasks_total,
        tasks_by_kind=by_kind,
        groups={g.name: GroupSummary.from_record(g) for g in groups},
        queue_stats=queue_stats,
        dep_stats=dep_stats,
        host_seconds=trace.host_seconds,
        trace=trace,
    )
