"""Unit tests for RuntimeConfig and the redesigned Scheduler front door."""

import pytest

from repro import Runtime, RuntimeConfig, Scheduler
from repro.energy.cost import AnalyticCost, HybridCost
from repro.energy.machine_model import XEON_E5_2650
from repro.runtime.errors import ConfigError, SchedulerError
from repro.runtime.policies import GlobalTaskBuffering, LocalQueueHistory

from ..conftest import SMALL_COST, spawn_n


class TestRuntimeConfig:
    def test_defaults(self):
        cfg = RuntimeConfig()
        assert cfg.policy == "accurate"
        assert cfg.n_workers == 16
        assert cfg.engine == "simulated"

    def test_dict_round_trip(self):
        cfg = RuntimeConfig(
            policy="gtb:buffer_size=16",
            n_workers=8,
            machine="xeon",
            cost_model="analytic",
            engine="sequential",
        )
        assert RuntimeConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_rejects_instances(self):
        cfg = RuntimeConfig(policy=GlobalTaskBuffering(4))
        with pytest.raises(ConfigError, match="spec strings serialize"):
            cfg.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown RuntimeConfig"):
            RuntimeConfig.from_dict({"policy": "gtb", "turbo": True})

    def test_invalid_n_workers(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(n_workers=0)
        # ConfigError stays inside the SchedulerError family.
        with pytest.raises(SchedulerError):
            RuntimeConfig(n_workers=-3)

    def test_unknown_component_spec_fails_at_construction(self):
        with pytest.raises(ConfigError, match="invalid policy spec"):
            RuntimeConfig(policy="quantum")
        with pytest.raises(ConfigError, match="invalid engine spec"):
            RuntimeConfig(engine="quantum")

    def test_replace_revalidates(self):
        cfg = RuntimeConfig()
        assert cfg.replace(n_workers=4).n_workers == 4
        with pytest.raises(ConfigError):
            cfg.replace(n_workers=0)

    def test_build_policy_fresh_per_call(self):
        cfg = RuntimeConfig(policy="gtb:buffer_size=4")
        assert cfg.build_policy() is not cfg.build_policy()

    def test_build_machine_resizes_specs_not_instances(self):
        assert RuntimeConfig(n_workers=4).build_machine().n_cores >= 4
        spec_built = RuntimeConfig(
            machine="xeon", n_workers=24
        ).build_machine()
        assert spec_built.n_cores >= 24
        explicit = RuntimeConfig(
            machine=XEON_E5_2650, n_workers=4
        ).build_machine()
        assert explicit is XEON_E5_2650  # used as-is

    def test_build_cost_model(self):
        assert isinstance(
            RuntimeConfig(cost_model="analytic").build_cost_model(),
            AnalyticCost,
        )
        assert isinstance(
            RuntimeConfig().build_cost_model(), HybridCost
        )


class TestDataPlane:
    """The validated ``data_plane`` field (zero-copy API redesign)."""

    def test_default_is_engine_choice(self):
        assert RuntimeConfig().data_plane is None

    def test_valid_planes_normalize(self):
        assert RuntimeConfig(data_plane="pickle").data_plane == "pickle"
        assert RuntimeConfig(data_plane="shm").data_plane == "shm"
        cfg = RuntimeConfig(data_plane="shm:min_bytes=65536")
        assert cfg.data_plane == "shm:min_bytes=65536"

    @pytest.mark.parametrize(
        "bad",
        [
            "mmap",                 # unknown plane
            "shm:wat=1",            # unknown option
            "shm:min_bytes=-1",     # ill-typed option value
            "shm:min_bytes=true",
            42,                     # not a spec string
        ],
    )
    def test_unknown_planes_and_options_rejected(self, bad):
        with pytest.raises(ConfigError, match="data.plane"):
            RuntimeConfig(data_plane=bad)

    def test_json_round_trip(self):
        cfg = RuntimeConfig(
            engine="process", data_plane="shm:min_bytes=8192"
        )
        assert RuntimeConfig.from_dict(cfg.to_dict()) == cfg

    def test_shm_plane_configures_process_engine(self):
        cfg = RuntimeConfig(
            engine="process", n_workers=2, data_plane="shm"
        )
        sched = Scheduler(cfg)
        assert sched.engine.data_plane_stats is not None
        sched.finish()

    def test_explicit_engine_spec_wins_over_data_plane(self):
        cfg = RuntimeConfig(
            engine="process:shm=false", n_workers=2, data_plane="shm"
        )
        sched = Scheduler(cfg)
        assert sched.engine.data_plane_stats is None
        sched.finish()

    def test_plane_is_inert_for_inprocess_engines(self):
        cfg = RuntimeConfig(
            engine="threaded", n_workers=2, data_plane="shm"
        )
        sched = Scheduler(cfg)  # no unexpected-kwarg explosion
        sched.finish()

    def test_describe_mentions_plane(self):
        cfg = RuntimeConfig(data_plane="shm")
        assert "data_plane=shm" in cfg.describe()


def _run(sched: Scheduler):
    spawn_n(sched, 12, label="g")
    sched.init_group("g", ratio=0.5)
    return sched.finish()


class TestSchedulerFrontDoor:
    def test_config_object(self):
        cfg = RuntimeConfig(policy="gtb:buffer_size=4", n_workers=2)
        rep = _run(Scheduler(cfg))
        assert rep.n_workers == 2
        assert rep.tasks_total == 12

    def test_spec_kwargs(self):
        sched = Scheduler(policy="lqh", n_workers=3, engine="simulated")
        assert isinstance(sched.policy, LocalQueueHistory)
        assert sched.engine.n_workers == 3

    def test_kwargs_override_config(self):
        cfg = RuntimeConfig(policy="gtb", n_workers=8)
        sched = Scheduler(cfg, n_workers=2, policy="lqh")
        assert sched.engine.n_workers == 2
        assert isinstance(sched.policy, LocalQueueHistory)

    def test_config_recorded(self):
        cfg = RuntimeConfig(policy="oracle", n_workers=2)
        assert Scheduler(cfg).config == cfg

    def test_equivalence_of_all_fronts(self):
        """Config, spec-kwargs, and programmatic instances agree."""
        reports = [
            _run(Scheduler(RuntimeConfig("gtb:buffer_size=4", 2))),
            _run(Scheduler(policy="gtb:buffer_size=4", n_workers=2)),
            _run(
                Scheduler(policy=GlobalTaskBuffering(4), n_workers=2)
            ),
        ]
        baseline = reports[0]
        for rep in reports[1:]:
            assert rep.makespan_s == baseline.makespan_s
            assert rep.energy_j == baseline.energy_j
            assert rep.tasks_by_kind == baseline.tasks_by_kind

    def test_positional_policy_rejected(self):
        """The first positional parameter is the config; a policy
        instance goes in by keyword."""
        with pytest.raises(SchedulerError, match="policy="):
            Scheduler(GlobalTaskBuffering(4), 2)
        sched = Scheduler(policy=GlobalTaskBuffering(4), n_workers=2)
        assert isinstance(sched.policy, GlobalTaskBuffering)
        assert _run(sched).n_workers == 2

    def test_positional_and_keyword_policy_conflict(self):
        with pytest.raises(SchedulerError, match="policy="):
            Scheduler(GlobalTaskBuffering(4), policy="lqh")

    def test_unknown_engine_rejected_as_scheduler_error(self):
        with pytest.raises(SchedulerError):
            Scheduler(engine="quantum")

    def test_scheduler_exit_stores_report(self):
        """Bare Scheduler context now keeps the RunReport, like Runtime."""
        with Scheduler(n_workers=2) as sched:
            sched.spawn(lambda: 1, cost=SMALL_COST)
        assert sched.report is not None
        assert sched.report.tasks_total == 1

    def test_finish_also_stores_report(self):
        sched = Scheduler(n_workers=2)
        spawn_n(sched, 3)
        rep = sched.finish()
        assert sched.report is rep


class TestRuntimeFrontDoor:
    def test_runtime_accepts_specs_end_to_end(self):
        with Runtime(policy="gtb:buffer_size=16", n_workers=2) as rt:
            rt.init_group("g", ratio=0.5)
            spawn_n(rt, 8, label="g")
        assert rt.report is not None
        assert rt.report.tasks_total == 8

    def test_runtime_threaded_engine_spec(self):
        with Runtime(
            policy="gtb-max", engine="threaded", n_workers=2
        ) as rt:
            rt.init_group("g", ratio=0.5)
            spawn_n(rt, 10, label="g")
        assert rt.report.accurate_tasks == 5

    def test_runtime_accepts_config(self):
        cfg = RuntimeConfig(policy="lqh", n_workers=2)
        with Runtime(cfg) as rt:
            spawn_n(rt, 4)
        assert rt.report.tasks_total == 4
