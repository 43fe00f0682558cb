"""Energy accounting over execution traces (the likwid/RAPL substitute).

The paper: "the energy and power are measured using likwid to access the
Running Average Power Limit (RAPL) registers of the processors."  Here
energy is *integrated* from the execution trace and the machine power
model instead of read from MSRs:

    E = P_package_static * T
      + sum_cores [ busy_i * P_active + (T - busy_i) * P_idle ]

with ``T`` the window length (makespan for a full run).  The same
decomposition RAPL exposes (package / PP0-cores / DRAM) is reported so
the benchmark tables read like the paper's.

Every execution backend funnels its busy intervals here through the
shared :class:`~repro.runtime.accounting.AccountingCore` (DESIGN.md
section 6) — on the simulated engines the intervals are virtual time
and the integration is exact; on the threaded/process backends they
are measured wall-clock and the result is an estimate, labelled as
such in the engine docs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..runtime.errors import EnergyModelError
from ..sim.trace import ExecutionTrace
from .machine_model import MachineModel

__all__ = ["EnergyReport", "EnergyMeter", "IntervalSampler"]


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown for one measurement window (all Joules)."""

    window_s: float
    busy_s: float
    package_uncore_j: float
    dram_j: float
    core_active_j: float
    core_idle_j: float

    @property
    def cores_j(self) -> float:
        """PP0-style core-domain energy."""
        return self.core_active_j + self.core_idle_j

    @property
    def total_j(self) -> float:
        """Package + DRAM total — the number Figure 2 plots."""
        return self.package_uncore_j + self.dram_j + self.cores_j

    @property
    def average_power_w(self) -> float:
        if self.window_s <= 0:
            return 0.0
        return self.total_j / self.window_s

    def __add__(self, other: "EnergyReport") -> "EnergyReport":
        return EnergyReport(
            self.window_s + other.window_s,
            self.busy_s + other.busy_s,
            self.package_uncore_j + other.package_uncore_j,
            self.dram_j + other.dram_j,
            self.core_active_j + other.core_active_j,
            self.core_idle_j + other.core_idle_j,
        )

    @classmethod
    def from_trace(
        cls,
        trace: ExecutionTrace,
        machine: MachineModel,
        window_s: float | None = None,
    ) -> "EnergyReport":
        """Integrate the power model over a trace.

        ``window_s`` defaults to the trace makespan; passing a longer
        window accounts extra all-idle time (e.g. a master tail).
        """
        span = trace.makespan if window_s is None else float(window_s)
        if span < trace.makespan - 1e-12:
            raise EnergyModelError(
                f"window {span} shorter than trace makespan "
                f"{trace.makespan}"
            )
        n_cores = max(machine.n_cores, trace.n_workers)
        if trace.n_workers > machine.n_cores:
            raise EnergyModelError(
                f"trace has {trace.n_workers} workers but machine has "
                f"only {machine.n_cores} cores"
            )
        busy = trace.busy_time()
        return cls(
            window_s=span,
            busy_s=busy,
            package_uncore_j=machine.uncore_w
            * machine.topology.sockets
            * span,
            dram_j=machine.dram_w * machine.topology.sockets * span,
            core_active_j=busy * machine.core_active_w,
            core_idle_j=(n_cores * span - busy) * machine.core_idle_w,
        )


class EnergyMeter:
    """pyRAPL-style measurement sessions over a live trace.

    The engine exposes its trace and clock; ``begin()``/``end()`` bracket
    a window and integrate the machine model over it:

    >>> meter = EnergyMeter(machine)
    >>> meter.begin(trace, t0=clock.now)
    >>> ... run ...
    >>> report = meter.end(trace, t1=clock.now)
    """

    def __init__(self, machine: MachineModel) -> None:
        self.machine = machine
        self._t0: float | None = None

    def begin(self, trace: ExecutionTrace, t0: float) -> None:
        self._t0 = t0

    def end(self, trace: ExecutionTrace, t1: float) -> EnergyReport:
        if self._t0 is None:
            raise EnergyModelError("EnergyMeter.end() without begin()")
        t0, self._t0 = self._t0, None
        if t1 < t0:
            raise EnergyModelError(f"meter window [{t0}, {t1}] inverted")
        clipped = trace.window(t0, t1, rebase=True)
        return EnergyReport.from_trace(
            clipped, self.machine, window_s=t1 - t0
        )


class IntervalSampler:
    """Periodic energy sampling over a *live* trace (any backend).

    The feedback substrate of the
    :class:`~repro.tuning.governor.EnergyBudgetGovernor`: each
    :meth:`sample` call returns the energy spent since the previous
    sample.  Semantically it differences *cumulative* integrations (the
    same discipline RAPL counters force on real tooling) rather than
    integrating each interval in isolation — a task that was in flight
    at the previous sample lands in the trace later, and cumulative
    differencing attributes it to the interval in which it became
    visible instead of losing it.  The cumulative total is therefore
    exact at every sample point for all recorded work.

    The implementation is *incremental*: every engine records a
    segment at its finish time, so each segment known at sample time
    lies wholly in ``[0, t]`` and is consumed exactly once via a trace
    position (:attr:`position`; a trace is never folded past it).
    Per-tick cost is O(segments recorded since the last sample), not
    O(total trace) — the governor's feedback stays cheap even on long
    fine-grained runs, and on the threaded engine it runs under the
    engine lock without stalling workers.

    Backends record busy intervals on their own timeline (virtual
    seconds on the simulated machine, wall seconds on the threaded and
    process engines); the sampler is timeline-agnostic, which is what
    lets the governor close its loop on every backend.

    ``epochs`` may name a *live* list of
    :class:`~repro.energy.dvfs.DvfsEpoch` switches (e.g.
    ``accounting.dvfs_epochs``); each segment's active energy is then
    billed piecewise at the power point of every epoch it overlaps.
    """

    def __init__(
        self,
        machine: MachineModel,
        trace: ExecutionTrace,
        epochs: list | None = None,
    ) -> None:
        if trace.n_workers > machine.n_cores:
            raise EnergyModelError(
                f"trace has {trace.n_workers} workers but machine has "
                f"only {machine.n_cores} cores"
            )
        self.machine = machine
        self.trace = trace
        self.epochs = epochs
        self._last_t = 0.0
        self._cursor = 0
        self._cumulative = EnergyReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        # factor -> active-core W, via the canonical scaling law
        # (MachineModel.scaled_frequency) so the feedback stream can
        # never diverge from the final energy_with_epochs integration.
        self._active_w_cache: dict[float, float] = {
            1.0: machine.core_active_w
        }

    @property
    def last_t(self) -> float:
        """Time of the most recent sample (0 before the first)."""
        return self._last_t

    @property
    def position(self) -> int:
        """Trace position of the first segment not yet sampled."""
        return self._cursor

    @property
    def cumulative(self) -> EnergyReport:
        """Total energy up to the most recent sample."""
        return self._cumulative

    def _active_w(self, factor: float) -> float:
        """Active-core power at a frequency factor (cached; billed via
        :meth:`~repro.energy.machine_model.MachineModel
        .scaled_frequency`, the one home of the scaling law)."""
        watts = self._active_w_cache.get(factor)
        if watts is None:
            watts = self.machine.scaled_frequency(factor).core_active_w
            self._active_w_cache[factor] = watts
        return watts

    def _active_j(self, start: float, end: float) -> float:
        """Active-core energy of one busy interval under the epochs.

        Epochs are time-ordered, so the scan bisects to the epoch in
        force at ``start`` and stops at the first epoch beyond ``end``
        — per-segment cost is bounded by the epochs the segment
        actually overlaps, not the run's full switch history.
        """
        epochs = self.epochs
        if not epochs:
            return (end - start) * self.machine.core_active_w
        i = bisect.bisect_right(epochs, (start,)) - 1
        prev_t, prev_f = (0.0, 1.0) if i < 0 else epochs[i]
        total = 0.0
        # Index iteration, not a slice: a slice would copy the whole
        # remaining switch history per segment, defeating the bounded
        # cost promised above.
        for j in range(i + 1, len(epochs)):
            epoch = epochs[j]
            if epoch.t >= end:
                break
            overlap = min(end, epoch.t) - max(start, prev_t)
            if overlap > 0:
                total += overlap * self._active_w(prev_f)
            prev_t, prev_f = epoch.t, epoch.factor
        overlap = end - max(start, prev_t)
        if overlap > 0:
            total += overlap * self._active_w(prev_f)
        return total

    def sample(self, t: float) -> EnergyReport:
        """Energy spent in ``(last_t, t]``; advances the sample cursor.

        ``t`` must not run backwards; sampling twice at the same instant
        returns a zero-width (zero-energy) report.  Segments recorded
        after the last sample must not extend past ``t`` — true by
        construction on every engine (segments are recorded at their
        finish time, and the backends serialize recording against
        sampling).
        """
        if t < self._last_t:
            raise EnergyModelError(
                f"sampler time ran backwards: {t} < {self._last_t}"
            )
        machine = self.machine
        window = t - self._last_t
        busy = 0.0
        active_j = 0.0
        for seg in self.trace.since(self._cursor):
            busy += seg.duration
            active_j += self._active_j(seg.start, seg.end)
        self._cursor = self.trace.position

        interval = EnergyReport(
            window_s=window,
            busy_s=busy,
            package_uncore_j=machine.uncore_w
            * machine.topology.sockets
            * window,
            dram_j=machine.dram_w * machine.topology.sockets * window,
            core_active_j=active_j,
            # Idle differencing: cores*t*P_idle - busy_total*P_idle,
            # incrementally (late-recorded busy subtracts here exactly
            # as it adds to the active channel).
            core_idle_j=(machine.n_cores * window - busy)
            * machine.core_idle_w,
        )
        self._last_t = t
        self._cumulative = self._cumulative + interval
        return interval
