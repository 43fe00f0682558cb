"""Execution traces: the raw material for time, energy and Gantt views.

Every engine (simulated or threaded) records one :class:`Segment` per
executed task: which worker ran it, over which `[start, end)` interval,
with which decision.  The trace is the single source of truth from which

* the makespan (paper: "execution time") is derived,
* the energy model integrates busy/idle core power (paper: RAPL energy),
* per-worker utilization and load balance are reported, and
* ASCII Gantt charts are rendered for debugging/examples.

The trace is a stream: every segment has an absolute *position* (its
index in record order), and readers that consume it incrementally keep
a position, not a list index.  :meth:`ExecutionTrace.fold` drops a
prefix a long-lived owner no longer needs (the serving layer keeps a
fixed tail) while the aggregate views keep counting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runtime.errors import SchedulerError
from ..runtime.task import ExecutionKind

__all__ = ["Segment", "ExecutionTrace"]


@dataclass(frozen=True, slots=True)
class Segment:
    """One task execution on one worker over ``[start, end)`` seconds."""

    worker: int
    start: float
    end: float
    tid: int
    kind: ExecutionKind
    group: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ExecutionTrace:
    """Append-only log of task executions plus master-side activity.

    ``segments`` holds the segments from absolute position ``base`` on;
    the folded prefix before it survives only as the partial sums the
    aggregate views (:attr:`makespan`, :meth:`busy_time`,
    :meth:`busy_by_worker`, :meth:`tasks_by_kind`) continue in record
    order, so folding never changes what they return.  Views that need
    the segments themselves (:meth:`window`, :meth:`gantt`, the chrome
    trace, DVFS replay) see the retained tail only.
    """

    n_workers: int
    segments: list[Segment] = field(default_factory=list)
    #: Total virtual seconds the master spent in spawn/flush bookkeeping.
    master_busy: float = 0.0
    #: Wall-clock (host) seconds spent actually running task bodies;
    #: diagnostic only — virtual time is authoritative.
    host_seconds: float = 0.0
    #: Absolute position of ``segments[0]``: how many were folded.
    base: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        # Partial sums of the folded prefix, in record order.
        self._busy = 0.0
        self._busy_by_worker = [0.0] * self.n_workers
        self._makespan = 0.0
        self._kinds = {k: 0 for k in ExecutionKind}

    def record(self, segment: Segment) -> None:
        if segment.end < segment.start:
            raise SchedulerError(
                f"segment ends before it starts: {segment}"
            )
        if not 0 <= segment.worker < self.n_workers:
            raise SchedulerError(
                f"segment worker {segment.worker} out of range"
            )
        self.segments.append(segment)

    # -- stream positions ------------------------------------------------
    @property
    def position(self) -> int:
        """Absolute position of the next segment to be recorded (the
        number of segments ever recorded)."""
        return self.base + len(self.segments)

    def since(self, pos: int) -> list[Segment]:
        """Segments recorded from absolute position ``pos`` on."""
        if pos < self.base:
            raise SchedulerError(
                f"trace position {pos} was folded (retained from "
                f"{self.base})"
            )
        return self.segments[pos - self.base:]

    def fold(self, through: int) -> int:
        """Drop the segments before absolute position ``through``,
        keeping their partial sums; returns how many were dropped."""
        n = min(through, self.position) - self.base
        if n <= 0:
            return 0
        busy, makespan = self._busy, self._makespan
        by_worker, kinds = self._busy_by_worker, self._kinds
        for s in self.segments[:n]:
            duration = s.duration
            busy += duration
            by_worker[s.worker] += duration
            kinds[s.kind] += 1
            if s.end > makespan:
                makespan = s.end
        del self.segments[:n]
        self._busy, self._makespan = busy, makespan
        self.base += n
        return n

    # -- aggregate views -------------------------------------------------
    @property
    def makespan(self) -> float:
        """Virtual completion time of the last task (0 for empty traces)."""
        return max(
            self._makespan, max((s.end for s in self.segments), default=0.0)
        )

    def busy_time(self, worker: int | None = None) -> float:
        """Total busy seconds for one worker or summed over all workers."""
        if worker is None:
            return sum((s.duration for s in self.segments), self._busy)
        return sum(
            (s.duration for s in self.segments if s.worker == worker),
            self._busy_by_worker[worker],
        )

    def busy_by_worker(self) -> list[float]:
        out = list(self._busy_by_worker)
        for s in self.segments:
            out[s.worker] += s.duration
        return out

    def utilization(self) -> float:
        """Aggregate busy fraction over the makespan window."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return self.busy_time() / (span * self.n_workers)

    def tasks_by_kind(self) -> dict[ExecutionKind, int]:
        out = dict(self._kinds)
        for s in self.segments:
            out[s.kind] += 1
        return out

    def window(
        self, t0: float, t1: float, rebase: bool = False
    ) -> "ExecutionTrace":
        """Clip the trace to ``[t0, t1]``.

        ``rebase=True`` shifts the clipped segments so the window
        starts at time 0 — what meter sessions need, since their
        energy integration treats the window as a standalone interval.
        """
        if t1 < t0:
            raise SchedulerError(f"bad window [{t0}, {t1}]")
        clipped = ExecutionTrace(self.n_workers)
        shift = t0 if rebase else 0.0
        for s in self.segments:
            lo, hi = max(s.start, t0), min(s.end, t1)
            if hi > lo:
                clipped.record(
                    Segment(
                        s.worker,
                        lo - shift,
                        hi - shift,
                        s.tid,
                        s.kind,
                        s.group,
                    )
                )
        return clipped

    # -- rendering ---------------------------------------------------------
    def gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart: one row per worker.

        ``#`` = accurate task, ``~`` = approximate, ``.`` = idle.
        Dropped tasks take zero time and do not appear.
        """
        span = self.makespan
        lines = []
        if span <= 0:
            return "(empty trace)"
        scale = width / span
        for w in range(self.n_workers):
            row = ["."] * width
            for s in self.segments:
                if s.worker != w or s.duration == 0:
                    continue
                lo = int(s.start * scale)
                hi = max(lo + 1, int(s.end * scale))
                ch = "#" if s.kind is ExecutionKind.ACCURATE else "~"
                for i in range(lo, min(hi, width)):
                    row[i] = ch
            lines.append(f"w{w:02d} |{''.join(row)}|")
        lines.append(f"     0{'':{max(0, width - 14)}}{span:.6f}s")
        return "\n".join(lines)
