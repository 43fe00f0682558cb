"""Unit tests for the oracle and significance-agnostic policies."""

import pytest

from repro.registry import resolve
from repro.runtime.policies import OraclePolicy, SignificanceAgnostic
from repro.runtime.task import ExecutionKind

from ..conftest import make_scheduler, spawn_n


class TestAgnostic:
    def test_everything_accurate_regardless_of_ratio(self):
        rt = make_scheduler(policy=SignificanceAgnostic())
        rt.init_group("g", ratio=0.0)
        tasks = spawn_n(rt, 8, label="g")
        rt.finish()
        assert all(
            t.decision is ExecutionKind.ACCURATE for t in tasks
        )

    def test_zero_decide_overhead(self):
        from repro.runtime.task import Task

        p = SignificanceAgnostic()
        assert p.decide_overhead(Task(fn=lambda: None)) == 0.0


class TestOracle:
    def test_exact_quota_and_zero_inversions(self):
        rt = make_scheduler(policy=OraclePolicy())
        rt.init_group("g", ratio=0.5)
        spawn_n(rt, 40, label="g")
        report = rt.finish()
        assert report.accurate_tasks == 20
        assert report.total_inversion_pct() == 0.0
        assert report.mean_ratio_offset() == pytest.approx(0.0)

    def test_oracle_not_slower_than_gtb_max(self):
        """Clairvoyance never loses to max-buffer GTB (same decisions,
        no buffering delay)."""
        from repro.runtime.policies import gtb_max_buffer

        def run(policy):
            rt = make_scheduler(policy=policy, workers=4)
            rt.init_group("g", ratio=0.5)
            spawn_n(rt, 64, label="g")
            return rt.finish().makespan_s

        assert run(OraclePolicy()) <= run(gtb_max_buffer()) + 1e-12

    def test_most_significant_chosen(self):
        rt = make_scheduler(policy=OraclePolicy())
        rt.init_group("g", ratio=0.25)
        tasks = spawn_n(rt, 8, label="g", sig=lambda i: (i + 1) / 10.0)
        rt.finish()
        accurate = {t.args[0] for t in tasks
                    if t.decision is ExecutionKind.ACCURATE}
        assert accurate == {6, 7}


class TestMakePolicy:
    """The registry resolves every historical policy spec."""

    @pytest.mark.parametrize("spec,cls_name", [
        ("gtb", "GlobalTaskBuffering"),
        ("gtb-max", "GlobalTaskBuffering"),
        ("lqh", "LocalQueueHistory"),
        ("accurate", "SignificanceAgnostic"),
        ("agnostic", "SignificanceAgnostic"),
        ("oracle", "OraclePolicy"),
    ])
    def test_specs(self, spec, cls_name):
        assert type(resolve("policy", spec)).__name__ == cls_name

    def test_gtb_kwargs(self):
        p = resolve("policy", "gtb", buffer_size=7)
        assert p.buffer_size == 7

    def test_gtb_max_has_no_buffer_limit(self):
        assert resolve("policy", "gtb-max").buffer_size is None

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            resolve("policy", "magic")

    def test_unattached_policy_raises(self):
        from repro.runtime.errors import PolicyError

        p = resolve("policy", "lqh")
        with pytest.raises(PolicyError):
            _ = p.scheduler
