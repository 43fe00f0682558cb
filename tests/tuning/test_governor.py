"""EnergyBudgetGovernor: the online control loop (ISSUE 4 tentpole).

The acceptance scenario: on the Sobel workload with the budget at ~70%
of full-precision energy, the governor converges within the run, final
energy lands within 10% of budget, and quality beats the
significance-agnostic drop baseline at equal energy.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import EnergyBudgetGovernor, RuntimeConfig, Scheduler
from repro.kernels.base import get_benchmark
from repro.registry import available, resolve
from repro.runtime.task import TaskCost
from repro.tuning.governor import GovernorError

N_WORKERS = 16
SEED = 2015


def _sobel(size: int):
    bench = get_benchmark("sobel", small=True)
    bench.height = bench.width = size
    return bench


def _accurate_run(bench, inputs):
    sched = Scheduler(policy="accurate", n_workers=N_WORKERS)
    out = bench.run_tasks(sched, inputs, 1.0)
    return out, sched.finish()


@pytest.fixture(scope="module")
def sobel_setup():
    bench = _sobel(256)
    inputs = bench.build_input(SEED)
    reference = bench.run_reference(inputs)
    _, full = _accurate_run(bench, inputs)
    return bench, inputs, reference, full


@pytest.fixture(scope="module")
def governed_70(sobel_setup):
    """The acceptance run: budget at 70% of full-precision energy."""
    bench, inputs, reference, full = sobel_setup
    budget = 0.7 * full.energy_j
    interval = full.makespan_s / 40
    sched = Scheduler(
        policy="lqh",
        n_workers=N_WORKERS,
        governor=f"governor:budget_j={budget},interval={interval}",
    )
    out = bench.run_tasks(sched, inputs, 1.0)
    report = sched.finish()
    return sched, report, out, budget


class TestAcceptance:
    def test_converges_within_the_run(self, governed_70):
        sched, report, out, budget = governed_70
        gov = sched.governor
        assert gov.ticks > 10
        assert gov.converged
        assert gov.steps_to_converge is not None
        assert gov.steps_to_converge < gov.ticks

    def test_final_energy_within_10pct_of_budget(self, governed_70):
        _, report, _, budget = governed_70
        assert abs(report.energy_j - budget) / budget <= 0.10

    def test_energy_well_below_full_precision(
        self, governed_70, sobel_setup
    ):
        _, report, _, _ = governed_70
        full = sobel_setup[3]
        assert report.energy_j < 0.80 * full.energy_j

    def test_quality_beats_agnostic_drop_at_equal_energy(
        self, governed_70, sobel_setup
    ):
        """Significance-aware approximation vs blind task dropping.

        The baseline sweeps the perforation (uniform-drop) knob and is
        interpolated to the governed run's exact energy; the governed
        quality (lower is better: PSNR^-1) must beat it.
        """
        bench, inputs, reference, _ = sobel_setup
        _, report, out, _ = governed_70
        gov_quality = bench.quality(reference, out).value

        frontier = []
        for param in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            sched = Scheduler(policy="accurate", n_workers=N_WORKERS)
            dropped = bench.run_perforated(sched, inputs, param)
            rep = sched.finish()
            frontier.append(
                (rep.energy_j, bench.quality(reference, dropped).value)
            )
        frontier.sort()
        # Piecewise-linear interpolation of drop-quality at the
        # governed energy (clamped to the swept range).
        energy = min(
            max(report.energy_j, frontier[0][0]), frontier[-1][0]
        )
        drop_quality = frontier[-1][1]
        for (e0, q0), (e1, q1) in zip(frontier, frontier[1:]):
            if e0 <= energy <= e1:
                w = 0.0 if e1 == e0 else (energy - e0) / (e1 - e0)
                drop_quality = q0 + w * (q1 - q0)
                break
        assert gov_quality < drop_quality

    def test_mix_actually_approximates(self, governed_70):
        _, report, _, _ = governed_70
        assert report.approximate_tasks > 0
        assert report.accurate_tasks > 0

    def test_deterministic(self, governed_70, sobel_setup):
        """Same spec, same virtual-time trajectory, bit-equal energy."""
        bench, inputs, _, full = sobel_setup
        _, report, _, budget = governed_70
        interval = full.makespan_s / 40
        sched = Scheduler(
            policy="lqh",
            n_workers=N_WORKERS,
            governor=f"governor:budget_j={budget},interval={interval}",
        )
        bench.run_tasks(sched, inputs, 1.0)
        rerun = sched.finish()
        assert rerun.energy_j == report.energy_j
        assert sched.governor.ratio == pytest.approx(
            sched.governor.history[-1].ratio
        )


class TestControlSurface:
    def test_history_records_every_tick(self, governed_70):
        sched, *_ = governed_70
        gov = sched.governor
        assert len(gov.history) == gov.ticks
        assert [s.index for s in gov.history] == list(range(gov.ticks))
        times = [s.t for s in gov.history]
        assert times == sorted(times)

    def test_summary_schema(self, governed_70):
        sched, *_ = governed_70
        summary = sched.governor.summary()
        assert set(summary) == {
            "budget_j",
            "ticks",
            "converged",
            "steps_to_converge",
            "final_ratio",
            "final_factor",
            "spent_j_at_last_tick",
            "projected_j",
        }

    def test_generous_budget_keeps_full_quality(self, sobel_setup):
        """A budget above full-precision energy should not approximate."""
        bench, inputs, _, full = sobel_setup
        budget = 1.5 * full.energy_j
        interval = full.makespan_s / 40
        sched = Scheduler(
            policy="lqh",
            n_workers=N_WORKERS,
            governor=f"governor:budget_j={budget},interval={interval}",
        )
        bench.run_tasks(sched, inputs, 1.0)
        report = sched.finish()
        # LQH's cold-histogram undershoot allows a small leak, but the
        # governor must hold the ratio at its ceiling.
        assert sched.governor.ratio == 1.0
        assert report.accurate_tasks >= 0.95 * report.tasks_total

    def test_ratio_floor_is_respected(self, sobel_setup):
        """An unreachably small budget pins at the quality floor."""
        bench, inputs, _, full = sobel_setup
        interval = full.makespan_s / 40
        sched = Scheduler(
            policy="lqh",
            n_workers=N_WORKERS,
            governor=(
                f"governor:budget_j={full.energy_j * 0.01},"
                f"interval={interval},ratio_floor=0.3"
            ),
        )
        bench.run_tasks(sched, inputs, 1.0)
        sched.finish()
        assert sched.governor.ratio >= 0.3

    def test_quality_floor_mode_without_budget(self, sobel_setup):
        """budget_j=None: hold the cheapest ratio the floor allows."""
        bench, inputs, _, full = sobel_setup
        interval = full.makespan_s / 40
        sched = Scheduler(
            policy="lqh",
            n_workers=N_WORKERS,
            governor=(
                f"governor:interval={interval},ratio_floor=0.6"
            ),
        )
        bench.run_tasks(sched, inputs, 1.0)
        report = sched.finish()
        assert sched.governor.ratio == pytest.approx(0.6, abs=0.15)
        assert report.approximate_tasks > 0

    def test_policy_set_ratio_applies_globally(self):
        sched = Scheduler(policy="lqh", n_workers=4)
        sched.init_group("a", ratio=1.0)
        sched.init_group("b", ratio=0.9)
        sched.policy.set_ratio(0.25)
        assert sched.groups.get("a").ratio == 0.25
        assert sched.groups.get("b").ratio == 0.25
        assert sched.groups.get(None).ratio == 0.25
        sched.policy.set_ratio(0.75, group="a")
        assert sched.groups.get("a").ratio == 0.75
        assert sched.groups.get("b").ratio == 0.25
        sched.finish()


class TestDvfsMode:
    def test_dvfs_improves_quality_at_equal_budget(self, sobel_setup):
        """Downclocking + a higher ratio beats nominal at one budget —
        the paper's section-6 hypothesis, now measurable online."""
        bench, inputs, reference, full = sobel_setup
        budget = 0.7 * full.energy_j
        interval = full.makespan_s / 40
        nominal = Scheduler(
            policy="lqh",
            n_workers=N_WORKERS,
            governor=f"governor:budget_j={budget},interval={interval}",
        )
        out_nominal = bench.run_tasks(nominal, inputs, 1.0)
        rep_nominal = nominal.finish()

        dvfs = Scheduler(
            policy="lqh",
            n_workers=N_WORKERS,
            governor=(
                f"governor:budget_j={budget},interval={interval},"
                "dvfs=true"
            ),
        )
        out_dvfs = bench.run_tasks(dvfs, inputs, 1.0)
        rep_dvfs = dvfs.finish()

        assert abs(rep_dvfs.energy_j - budget) / budget <= 0.10
        assert dvfs.governor.factor < 1.0
        assert dvfs.engine.accounting.dvfs_epochs
        q_dvfs = bench.quality(reference, out_dvfs).value
        q_nominal = bench.quality(reference, out_nominal).value
        assert q_dvfs < q_nominal
        # The report's energy integration billed the downclocked epochs
        # (a nominal-rate integration would overcharge dynamic power).
        assert rep_nominal.energy_j == pytest.approx(
            rep_dvfs.energy_j, rel=0.15
        )

    def test_dvfs_factor_is_a_table_step(self, sobel_setup):
        bench, inputs, _, full = sobel_setup
        interval = full.makespan_s / 40
        sched = Scheduler(
            policy="lqh",
            n_workers=N_WORKERS,
            governor=(
                f"governor:budget_j={0.6 * full.energy_j},"
                f"interval={interval},dvfs=true"
            ),
        )
        bench.run_tasks(sched, inputs, 1.0)
        sched.finish()
        assert sched.governor.factor in sched.governor.freq_table.factors


class TestSpecLayer:
    def test_registered_in_governor_family(self):
        assert "governor" in available("governor")
        gov = resolve(
            "governor", "governor:budget_j=2.0,interval=0.01,dvfs=true"
        )
        assert isinstance(gov, EnergyBudgetGovernor)
        assert gov.budget_j == 2.0
        assert gov.dvfs is True

    def test_aliases(self):
        for alias in ("budget", "energy-budget"):
            gov = resolve("governor", f"{alias}:budget_j=1.0")
            assert isinstance(gov, EnergyBudgetGovernor)

    def test_config_round_trip(self):
        cfg = RuntimeConfig(
            policy="lqh",
            governor="governor:budget_j=1.5,interval=0.001",
        )
        assert RuntimeConfig.from_dict(cfg.to_dict()) == cfg
        assert "governor=" in cfg.describe()

    def test_sweepable_from_experiment_spec(self):
        import repro

        spec = repro.ExperimentSpec(
            workload="sobel", small=True, config=RuntimeConfig()
        )
        specs = spec.sweep(
            governor=[
                "governor:budget_j=1.0,interval=0.001",
                "governor:budget_j=2.0,interval=0.001",
            ]
        )
        assert [s.config.governor for s in specs] == [
            "governor:budget_j=1.0,interval=0.001",
            "governor:budget_j=2.0,interval=0.001",
        ]

    def test_invalid_governor_spec_fails_at_config_time(self):
        from repro.runtime.errors import ConfigError

        with pytest.raises(ConfigError):
            RuntimeConfig(governor="not-a-governor")

    def test_scheduler_without_governor_has_none(self):
        sched = Scheduler(policy="accurate", n_workers=2)
        assert sched.governor is None
        sched.finish()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget_j": 0.0},
            {"budget_j": -1.0},
            {"interval": 0.0},
            {"interval": -0.5},
            {"ratio_floor": -0.1},
            {"ratio_floor": 0.9, "ratio_ceiling": 0.5},
            {"ratio_ceiling": 1.5},
            {"smoothing": 0.0},
            {"smoothing": 1.5},
            {"deadband": -0.01},
            {"settle_ticks": 0},
        ],
    )
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(GovernorError):
            EnergyBudgetGovernor(**kwargs)

    def test_unbound_governor_raises(self):
        gov = EnergyBudgetGovernor(budget_j=1.0)
        with pytest.raises(GovernorError):
            gov.scheduler

    def test_double_bind_raises(self):
        gov = EnergyBudgetGovernor(budget_j=1.0, interval=0.01)
        sched = Scheduler(policy="accurate", n_workers=2, governor=gov)
        with pytest.raises(GovernorError):
            gov.bind(sched)
        sched.finish()


class TestWallClockBackends:
    """The loop must close (ticks fire, control acts) on real threads
    and processes; tight tracking is a virtual-time-only promise."""

    def test_threaded_backend_ticks(self):
        gov = _ObservedGovernor(budget_j=10.0, interval=0.002)
        sched = Scheduler(
            policy="lqh", n_workers=4, engine="threaded", governor=gov
        )
        # One task holds the barrier open until the master's wait loop
        # has delivered a tick; the rest give that tick work to sample.
        sched.spawn(
            gov.ticked.wait,
            _TICK_TIMEOUT_S,
            cost=TaskCost(200000.0, 20000.0),
        )
        for i in range(200):
            sched.spawn(
                _slow_noop,
                significance=(i % 9 + 1) / 10,
                approxfun=_slow_noop,
                cost=TaskCost(200000.0, 20000.0),
            )
        sched.taskwait()
        report = sched.finish()
        assert gov.ticked.is_set()
        assert sched.governor.ticks >= 1
        assert report.tasks_total == 201

    def test_due_tick_delivered_at_barrier_exit(self):
        """A barrier with nothing to wait for never enters the wait
        loop; the tick that came due meanwhile must still fire."""
        gov = _ObservedGovernor(budget_j=10.0, interval=0.002)
        sched = Scheduler(
            policy="lqh", n_workers=2, engine="threaded", governor=gov
        )
        # Waits for the 2 ms tick interval to elapse on the host clock.
        time.sleep(0.005)
        sched.taskwait()
        assert gov.ticked.is_set()
        sched.finish()

    def test_process_backend_ticks(self):
        sched = Scheduler(
            policy="lqh",
            n_workers=2,
            engine="process:max_procs=2",
            governor="governor:budget_j=10.0,interval=0.01",
        )
        sched.spawn_many(
            _slow_noop_arg,
            [(i,) for i in range(40)],
            significance=lambda i: (i % 9 + 1) / 10,
            cost=TaskCost(200000.0, 20000.0),
        )
        sched.taskwait()
        report = sched.finish()
        assert sched.governor.ticks >= 1
        assert report.tasks_total == 40


#: Upper bound on how long the gate task waits for a tick (a failure
#: mode, not a pacing device: a healthy run releases it within ~2 ms).
_TICK_TIMEOUT_S = 30.0


class _ObservedGovernor(EnergyBudgetGovernor):
    """Sets an event once the engine has delivered a tick."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.ticked = threading.Event()

    def on_tick(self, now):
        super().on_tick(now)
        self.ticked.set()


def _slow_noop(*_args):
    # A body slow enough (~100us) that wall-clock ticks can interleave.
    x = 0
    for i in range(2000):
        x += i & 7
    return x


def _slow_noop_arg(i):
    return _slow_noop(i)
