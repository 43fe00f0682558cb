"""Online energy-budget governing: closing the paper's control loop.

The paper's headline scenario is a runtime that "selectively executes a
subset of the tasks approximately" to trade quality for energy — but the
evaluation turns the knob *offline*: every ratio point is a separate
run.  The :class:`EnergyBudgetGovernor` closes the loop online, the way
the intro says the ratio "can take different values in each invocation,
or be changed interactively": given a Joules budget (or a quality
floor), it observes per-interval energy/quality feedback from the shared
:class:`~repro.runtime.accounting.AccountingCore` and adjusts the
effective accurate-task ratio — and, optionally, the simulated DVFS
state — while the run executes.

The control law is a projection ("deadbeat") controller with online
model identification:

1. every tick, the accounting core emits an
   :class:`~repro.runtime.accounting.IntervalFeedback` (interval energy
   via cumulative differencing, retired tasks and busy time by kind);
2. the governor maintains per-kind nominal busy-seconds-per-task
   estimates (seeded from the analytic :class:`~repro.runtime.task
   .TaskCost` annotations when present, refined by measurement) and a
   multiplicative scale correction ``kappa`` absorbing whatever the
   per-frequency power model (:func:`~repro.energy.dvfs
   .predicted_energy`) mispredicts on this backend;
3. it solves ``spent + remaining * (r*e_acc + (1-r)*e_apx) = budget``
   for the ratio ``r`` and actuates
   :meth:`~repro.runtime.policies.base.Policy.set_ratio` (smoothed,
   clamped to the configured band);
4. with ``dvfs=True`` it first picks the
   :class:`~repro.energy.dvfs.FrequencyTable` step minimizing predicted
   energy for the remaining work (:func:`~repro.energy.dvfs
   .best_factor`) and actuates
   :meth:`~repro.runtime.policies.base.Policy.set_dvfs`, then spends
   the saved Joules on a higher accurate ratio.

Because tasks already executed are sunk cost, the controller is
self-correcting: any modelling error shows up in ``spent`` and the next
tick's ratio absorbs it.  Pair it with LQH (decisions at execution
time) or small-buffer GTB for tight tracking; GTB Max-Buffer stamps
every decision at the first barrier, leaving the governor nothing to
steer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..energy.dvfs import (
    DEFAULT_FREQUENCY_TABLE,
    FrequencyTable,
    best_factor,
    predicted_energy,
)
from ..registry import register
from ..runtime.errors import ReproError
from ..runtime.task import ExecutionKind

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.accounting import IntervalFeedback
    from ..runtime.scheduler import Scheduler

__all__ = ["EnergyBudgetGovernor", "GovernorError", "GovernorStep"]

#: Tasks sampled from the spawn log to seed the analytic cost priors.
_PRIOR_SAMPLE = 512

#: EWMA weight of a new busy-per-task observation (per interval).
_BUSY_ALPHA = 0.4


class GovernorError(ReproError):
    """Governor misconfiguration or wiring misuse."""


@dataclass(frozen=True)
class GovernorStep:
    """One control decision, for convergence analysis and plots."""

    index: int
    t: float
    spent_j: float
    projected_j: float
    ratio: float
    factor: float
    remaining_tasks: int


@register("governor", "governor", "budget", "energy-budget")
class EnergyBudgetGovernor:
    """Online controller steering a run toward an energy budget.

    Parameters
    ----------
    budget_j:
        Total energy target for the run (Joules on the engine's energy
        model).  ``None`` disables budget control — the governor then
        holds the ratio at ``ratio_floor`` (minimum energy subject to
        the quality floor) and, with ``dvfs=True``, still optimizes the
        frequency for the remaining work.
    interval:
        Feedback/actuation period in engine-timeline seconds (virtual
        seconds on the simulated engines, wall seconds on the threaded
        and process backends).  Choose well below the expected
        makespan; a run shorter than one interval is never steered.
    ratio_floor / ratio_ceiling:
        The band the controller may move the accurate ratio in.  The
        floor is the quality guarantee ("never approximate more than
        ``1 - floor`` of the tasks"); the ceiling caps how much budget
        headroom is converted back into accuracy.
    dvfs:
        Also actuate the simulated DVFS state (meaningful on the
        simulated engines, where frequency stretches durations; on
        wall-clock backends a switch only changes the billed power
        point, so it is off by default).
    freq_table:
        The discrete frequency steps to clamp to (default
        :data:`~repro.energy.dvfs.DEFAULT_FREQUENCY_TABLE`); also
        accepts a plain factor tuple.
    smoothing:
        Fraction of each tick's ratio correction applied (1.0 =
        deadbeat; lower damps measurement noise on wall-clock
        backends).
    deadband / settle_ticks:
        Convergence criterion: the run counts as converged once the
        ratio moves by at most ``deadband`` for ``settle_ticks``
        consecutive ticks.
    group:
        Control a single task group (default: every group, matching
        ``taskwait(ratio=...)`` semantics).
    """

    def __init__(
        self,
        budget_j: float | None = None,
        interval: float = 0.001,
        ratio_floor: float = 0.0,
        ratio_ceiling: float = 1.0,
        dvfs: bool = False,
        freq_table: FrequencyTable | tuple | None = None,
        smoothing: float = 0.7,
        deadband: float = 0.05,
        settle_ticks: int = 3,
        group: str | None = None,
    ) -> None:
        if budget_j is not None and budget_j <= 0:
            raise GovernorError(
                f"energy budget must be > 0 Joules, got {budget_j}"
            )
        if interval <= 0:
            raise GovernorError(
                f"governor interval must be > 0, got {interval}"
            )
        if not 0.0 <= ratio_floor <= ratio_ceiling <= 1.0:
            raise GovernorError(
                f"need 0 <= ratio_floor <= ratio_ceiling <= 1, got "
                f"floor={ratio_floor}, ceiling={ratio_ceiling}"
            )
        if not 0.0 < smoothing <= 1.0:
            raise GovernorError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        if deadband < 0:
            raise GovernorError(f"deadband must be >= 0, got {deadband}")
        if settle_ticks < 1:
            raise GovernorError(
                f"settle_ticks must be >= 1, got {settle_ticks}"
            )
        self.budget_j = budget_j
        self.interval = interval
        self.ratio_floor = ratio_floor
        self.ratio_ceiling = ratio_ceiling
        self.dvfs = dvfs
        if freq_table is None:
            self.freq_table = DEFAULT_FREQUENCY_TABLE
        elif isinstance(freq_table, FrequencyTable):
            self.freq_table = freq_table
        else:
            self.freq_table = FrequencyTable(tuple(freq_table))
        self.smoothing = smoothing
        self.deadband = deadband
        self.settle_ticks = settle_ticks
        self.group = group

        self._scheduler: "Scheduler | None" = None
        #: Control history, one entry per tick (read by tests/benches).
        self.history: list[GovernorStep] = []
        self._ratio = ratio_ceiling  # start accurate; steer downward
        self._factor = 1.0
        self._stable_streak = 0
        self._converged_at: int | None = None
        # Online model state: nominal busy-seconds per task by basket
        # (accurate vs approximate-or-dropped).  No power-model scale
        # correction is kept: energy attribution integrates the same
        # machine model the predictor uses, so the model is exact up to
        # occupancy effects — and those are absorbed tick-by-tick by
        # re-solving against the *measured* sunk cost.
        self._busy_per_task = {"acc": None, "apx": None}
        self._primed = False
        # Telemetry handles; None until obs_bind wires a registry.
        self._obs_ticks = None
        self._obs_ratio = None
        self._obs_factor = None

    # -- wiring ----------------------------------------------------------
    def bind(self, scheduler: "Scheduler") -> None:
        """Attach to a scheduler and install the periodic tick.

        Called by ``Scheduler.__init__`` when the config names a
        governor; binding twice (one governor instance per run) is a
        misuse the registry/spec path never produces.
        """
        if self._scheduler is not None:
            raise GovernorError(
                "governor is already bound to a scheduler; governors "
                "are one-run objects — build a fresh one per run"
            )
        self._scheduler = scheduler
        scheduler.engine.set_tick(self.interval, self.on_tick)

    def unbind(self) -> None:
        """Let go of a finished scheduler (its engine has already
        dropped the tick), so the finished run is freed without the
        cycle collector.  The control history stays readable."""
        self._scheduler = None

    @property
    def scheduler(self) -> "Scheduler":
        if self._scheduler is None:
            raise GovernorError("governor is not bound to a scheduler")
        return self._scheduler

    def obs_bind(self, registry, scope: str) -> None:
        """Wire control-loop telemetry into a metrics registry.

        ``scope`` is the label the series carry — the tenant name for
        per-tenant serve governors, ``"_run"`` for a run-level one.
        Safe to skip entirely (handles stay ``None`` and
        :meth:`control_step` pays one attribute test).
        """
        self._obs_ticks = registry.counter(
            "repro_governor_ticks_total",
            "Control-law steps taken.",
            labels=("scope",),
        ).labels(scope)
        self._obs_ratio = registry.gauge(
            "repro_governor_ratio",
            "Accurate ratio currently requested.",
            labels=("scope",),
        ).labels(scope)
        self._obs_factor = registry.gauge(
            "repro_governor_dvfs_factor",
            "DVFS factor currently requested (1.0 = nominal).",
            labels=("scope",),
        ).labels(scope)

    # -- introspection ---------------------------------------------------
    @property
    def ratio(self) -> float:
        """The accurate ratio currently requested."""
        return self._ratio

    @property
    def factor(self) -> float:
        """The DVFS factor currently requested (1.0 = nominal)."""
        return self._factor

    @property
    def ticks(self) -> int:
        return len(self.history)

    @property
    def converged(self) -> bool:
        return self._converged_at is not None

    @property
    def steps_to_converge(self) -> int | None:
        """Ticks until the ratio entered its stable band (None: never)."""
        return self._converged_at

    def summary(self) -> dict:
        """Flat control-outcome dict for reports and bench probes."""
        last = self.history[-1] if self.history else None
        return {
            "budget_j": self.budget_j,
            "ticks": self.ticks,
            "converged": self.converged,
            "steps_to_converge": self.steps_to_converge,
            "final_ratio": self._ratio,
            "final_factor": self._factor,
            "spent_j_at_last_tick": last.spent_j if last else 0.0,
            "projected_j": last.projected_j if last else 0.0,
        }

    # -- retargeting ------------------------------------------------------
    def retarget(self, budget_j: float) -> None:
        """Move the budget target of a running controller.

        The serving cluster leases tenant Joule quota to shards in
        chunks (:mod:`repro.cluster.ledger`); each refill raises the
        quota this shard's controller should steer toward.  Sunk cost
        and the identified energy model carry over untouched — the next
        :meth:`control_step` simply re-solves against the new target,
        which is exactly the deadbeat law's self-correction path.  The
        convergence latch resets: a retargeted run must settle again.
        """
        if budget_j <= 0:
            raise GovernorError(
                f"retarget budget must be > 0 Joules, got {budget_j}"
            )
        if budget_j != self.budget_j:
            self.budget_j = budget_j
            self._stable_streak = 0
            self._converged_at = None

    # -- model identification --------------------------------------------
    def _prime_from_costs(self) -> None:
        """Seed busy-per-task estimates from analytic task costs."""
        self._primed = True
        machine = self.scheduler.machine_model
        inv_ops = 1.0 / machine.ops_per_second
        acc: list[float] = []
        apx: list[float] = []
        for task in self.scheduler.tasks[:_PRIOR_SAMPLE]:
            cost = task.cost
            if cost is None:
                continue
            acc.append(cost.accurate * inv_ops)
            # Droppable tasks skip their body entirely when approximated.
            apx.append(
                0.0 if task.droppable else cost.approximate * inv_ops
            )
        if acc:
            self._busy_per_task["acc"] = sum(acc) / len(acc)
        if apx:
            self._busy_per_task["apx"] = sum(apx) / len(apx)

    def _observe(self, fb: "IntervalFeedback", factor: float) -> None:
        """Fold one interval's measurements into the model."""
        engine = self.scheduler.engine
        # On time-scaling (simulated) backends a busy interval recorded
        # under factor f is f× shorter than nominal; undo the stretch
        # so the model always reasons in nominal busy seconds.
        descale = (
            factor
            if getattr(engine, "dvfs_scales_time", False)
            else 1.0
        )
        buckets: dict[str, tuple[float, int]] = {}
        for kind, count in fb.tasks_by_kind.items():
            key = "acc" if kind is ExecutionKind.ACCURATE else "apx"
            busy = fb.busy_by_kind.get(kind, 0.0) * descale
            b, n = buckets.get(key, (0.0, 0))
            buckets[key] = (b + busy, n + count)
        for key, (busy, count) in buckets.items():
            if count == 0:
                continue
            observed = busy / count
            prior = self._busy_per_task[key]
            self._busy_per_task[key] = (
                observed
                if prior is None
                else prior + _BUSY_ALPHA * (observed - prior)
            )

    def _energy_per_task(self, key: str, factor: float) -> float:
        """Modelled Joules to retire one task of a basket at ``factor``."""
        b = self._busy_per_task[key]
        if b is None:
            # Never observed and no prior: assume the other basket's
            # cost (conservative for "apx", optimistic for "acc").
            other = self._busy_per_task["apx" if key == "acc" else "acc"]
            b = other if other is not None else 0.0
        machine = self.scheduler.machine_model
        width = self.scheduler.engine.n_workers
        return predicted_energy(machine, factor, b, width)

    # -- the control law --------------------------------------------------
    def on_tick(self, now: float) -> None:
        """One control step; installed as the engine's periodic tick."""
        scheduler = self.scheduler
        if not self._primed:
            self._prime_from_costs()
        factor_in_force = self._factor
        fb = scheduler.engine.accounting.interval_feedback(
            scheduler.machine_model, now
        )
        self._observe(fb, factor_in_force)

        remaining = scheduler.outstanding_tasks
        spent = fb.cumulative_j

        # Frequency first: pick the table step minimizing predicted
        # energy for the remaining work, then spend any headroom on
        # accuracy via the ratio solve below.
        factor = self._factor
        if self.dvfs and remaining > 0:
            b_acc = self._busy_per_task["acc"] or 0.0
            b_apx = self._busy_per_task["apx"] or 0.0
            work = remaining * (
                self._ratio * b_acc + (1.0 - self._ratio) * b_apx
            )
            # best_factor scans the table, so the result is a legal
            # step by construction — no clamp needed.
            factor = best_factor(
                scheduler.machine_model,
                work,
                scheduler.engine.n_workers,
                self.freq_table,
            )
            if factor != self._factor:
                scheduler.policy.set_dvfs(factor, at=now)
                self._factor = factor

        self.control_step(
            now,
            spent_j=spent,
            remaining_tasks=remaining,
            e_acc_j=self._energy_per_task("acc", factor),
            e_apx_j=self._energy_per_task("apx", factor),
        )
        scheduler.policy.set_ratio(self._ratio, group=self.group)

    def control_step(
        self,
        now: float,
        *,
        spent_j: float,
        remaining_tasks: int,
        e_acc_j: float,
        e_apx_j: float,
    ) -> float:
        """One budget-projection step on externally supplied measurements.

        The actuator-free core of the control law: solve for the ratio
        that lands on the budget given the sunk cost and the modelled
        per-task energies, smooth it, update the convergence latch and
        the history, and return the new ratio.  :meth:`on_tick` wraps it
        with the engine feedback channel and the ``set_ratio``/DVFS
        actuation; the serving layer (:mod:`repro.serve`) calls it
        directly with per-tenant measurements — one unbound governor per
        tenant steering that tenant's admission ratio.
        """
        ratio = self._solve_ratio(
            spent_j, remaining_tasks, e_acc_j, e_apx_j
        )
        previous = self._ratio
        self._ratio = previous + self.smoothing * (ratio - previous)
        # Convergence latches: once the ratio has held still for
        # settle_ticks, the controller counts as converged for the run.
        # Endgame jitter (a handful of remaining tasks makes the solve
        # coarsely discrete) must not un-converge a settled run.
        if abs(self._ratio - previous) <= self.deadband:
            self._stable_streak += 1
            if (
                self._converged_at is None
                and self._stable_streak >= self.settle_ticks
            ):
                # The tick (1-based) at which the stable streak began.
                self._converged_at = (
                    len(self.history) + 2 - self.settle_ticks
                )
        else:
            self._stable_streak = 0

        projected = spent_j + remaining_tasks * (
            self._ratio * e_acc_j + (1.0 - self._ratio) * e_apx_j
        )
        self.history.append(
            GovernorStep(
                index=len(self.history),
                t=now,
                spent_j=spent_j,
                projected_j=projected,
                ratio=self._ratio,
                factor=self._factor,
                remaining_tasks=remaining_tasks,
            )
        )
        if self._obs_ticks is not None:
            self._obs_ticks.inc()
            self._obs_ratio.set(self._ratio)
            self._obs_factor.set(self._factor)
        return self._ratio

    def _solve_ratio(
        self, spent: float, remaining: int, e_acc: float, e_apx: float
    ) -> float:
        """The deadbeat projection: the ratio landing on the budget."""
        if self.budget_j is None:
            # Quality-floor mode: cheapest ratio the floor allows.
            return self.ratio_floor
        if remaining <= 0:
            return self._ratio  # nothing left to steer
        headroom_per_task = (self.budget_j - spent) / remaining
        if e_acc <= e_apx + 1e-300:
            # Degenerate model (approximation saves nothing): run
            # accurate when the budget allows, floor otherwise.
            full = (
                self.ratio_ceiling
                if headroom_per_task >= e_acc
                else self.ratio_floor
            )
            return full
        r = (headroom_per_task - e_apx) / (e_acc - e_apx)
        return min(self.ratio_ceiling, max(self.ratio_floor, r))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = (
            f"budget={self.budget_j:.4g}J"
            if self.budget_j is not None
            else f"floor={self.ratio_floor}"
        )
        return (
            f"<EnergyBudgetGovernor {target} interval={self.interval} "
            f"dvfs={self.dvfs}>"
        )
