"""End-to-end tests of the bench runner and its CLI wiring.

The injectable timer makes the whole pipeline deterministic: with a
stepping fake clock every timed region lasts exactly one virtual second,
so metric values are exact functions of the workload sizes.
"""

import json
from pathlib import Path

import pytest

from repro.bench import BenchConfig, run_bench
from repro.bench.report import SCHEMA, Metric, load_report
from repro.bench.workloads import CALIBRATION_OPS, WORKLOADS
from repro.harness.__main__ import main
from repro.runtime.errors import ConfigError

ROOT = Path(__file__).resolve().parents[2]

#: Bench reports committed to the repository.
COMMITTED_REPORTS = (
    "BENCH_runtime.json",
    "benchmarks/baselines/bench_baseline.json",
    "benchmarks/baselines/bench_baseline_small.json",
)


class SteppingTimer:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        t = self.now
        self.now += 1.0
        return t


class TestRunBench:
    def test_deterministic_metrics_with_fake_timer(self):
        report = run_bench(
            BenchConfig(
                small=True,
                repeats=1,
                workloads=("spawn_overhead",),
                timer=SteppingTimer(),
            )
        )
        # Every timed region lasts exactly 1 fake second.
        assert report.calibration_ops_per_s == CALIBRATION_OPS
        us = report.metrics["spawn_overhead.us_per_task"]
        assert us.value == pytest.approx(1.0 / 400 * 1e6)
        assert not us.higher_is_better
        kop = report.metrics["spawn_overhead.kop_per_task"]
        assert kop.value == pytest.approx(CALIBRATION_OPS / 400 / 1e3)
        assert kop.gated

    def test_all_workloads_report_expected_metrics(self):
        report = run_bench(BenchConfig(small=True, repeats=1))
        assert {name.split(".")[0] for name in report.metrics} == set(
            WORKLOADS
        )
        gated = {n for n, m in report.metrics.items() if m.gated}
        # One normalized twin per throughput policy, spawn_overhead's
        # and spawn_many's kop/task plus the loop-speedup ratio, the
        # governor's budget bar and steps-to-converge, and the data
        # plane's bytes-not-copied fraction and its shm-speedup bar.
        assert gated == {
            "scheduler_throughput.accurate.tasks_per_mop",
            "scheduler_throughput.gtb.tasks_per_mop",
            "scheduler_throughput.lqh.tasks_per_mop",
            "spawn_overhead.kop_per_task",
            "spawn_many.kop_per_task",
            "spawn_many.speedup_vs_loop",
            "governor_convergence.budget_within_10pct",
            "governor_convergence.steps_to_converge",
            "payload_bandwidth.bytes_not_copied_frac",
            "payload_bandwidth.shm_speedup_ge_1_5x",
        }
        # A raw ratio is informational; only its pass/fail bar gates.
        speedup = report.metrics["payload_bandwidth.shm_speedup"]
        assert not speedup.gated
        bar = report.metrics["payload_bandwidth.shm_speedup_ge_1_5x"]
        assert bar.unit == "bool"
        assert bar.value == (1.0 if speedup.value >= 1.5 else 0.0)

    def test_committed_reports_match_the_probe_set(self):
        # A probe added or removed without regenerating the committed
        # reports leaves stale metrics that can never gate again.
        names = set(run_bench(BenchConfig(small=True, repeats=1)).metrics)
        for rel in COMMITTED_REPORTS:
            assert set(load_report(ROOT / rel)) == names, rel

    def test_baseline_comparison_attached(self, tmp_path):
        base = run_bench(
            BenchConfig(
                small=True,
                repeats=1,
                workloads=("spawn_overhead",),
                timer=SteppingTimer(),
            )
        )
        path = base.write(tmp_path / "base.json")
        report = run_bench(
            BenchConfig(
                small=True,
                repeats=1,
                workloads=("spawn_overhead",),
                timer=SteppingTimer(),
                baselines={"baseline": path},
            )
        )
        cmp_ = report.comparisons["baseline"]
        # Identical fake clocks -> identical metrics -> speedup 1.0.
        assert cmp_.ok
        for row in cmp_.metrics:
            assert row.speedup == pytest.approx(1.0)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown bench workloads"):
            BenchConfig(workloads=("nope",))

    def test_bad_repeats_rejected(self):
        with pytest.raises(ConfigError, match="repeats"):
            BenchConfig(repeats=0)


class TestCli:
    def test_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_runtime.json"
        code = main(
            [
                "bench",
                "--small",
                "--repeats", "1",
                "--bench-workload", "spawn_overhead",
                "--no-baseline",
                "--json", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == SCHEMA
        assert "spawn_overhead.us_per_task" in data["metrics"]
        assert "spawn_overhead" in capsys.readouterr().out

    def test_bench_regression_exits_nonzero(self, tmp_path, capsys):
        # A baseline claiming absurdly better numbers must trip the gate.
        from repro.bench.report import BenchReport

        impossible = BenchReport(
            small=True,
            repeats=1,
            n_workers=16,
            calibration_ops_per_s=1e9,
            metrics={
                "spawn_overhead.kop_per_task": Metric(
                    1e-9, "kop/task", higher_is_better=False, gated=True
                ),
            },
        )
        base = impossible.write(tmp_path / "impossible.json")
        code = main(
            [
                "bench",
                "--small",
                "--repeats", "1",
                "--bench-workload", "spawn_overhead",
                "--baseline", str(base),
                "--json", str(tmp_path / "out.json"),
            ]
        )
        assert code == 1
        assert "PERF REGRESSION" in capsys.readouterr().err

    def test_bench_update_baseline(self, tmp_path):
        target = tmp_path / "baseline.json"
        code = main(
            [
                "bench",
                "--small",
                "--repeats", "1",
                "--bench-workload", "spawn_overhead",
                "--no-baseline",
                "--baseline", str(target),
                "--json", str(tmp_path / "out.json"),
                "--update-baseline",
            ]
        )
        assert code == 0
        assert json.loads(target.read_text())["schema"] == SCHEMA


class TestBaselineSizeGuard:
    def test_size_mismatched_gate_baseline_rejected(self, tmp_path):
        from repro.bench.report import BenchReport

        full_baseline = BenchReport(
            small=False,
            repeats=1,
            n_workers=16,
            calibration_ops_per_s=1e8,
            metrics={
                "spawn_overhead.kop_per_task": Metric(
                    0.1, "kop/task", higher_is_better=False, gated=True
                ),
            },
        ).write(tmp_path / "full.json")
        with pytest.raises(ConfigError, match="other workload size"):
            main(
                [
                    "bench",
                    "--small",
                    "--repeats", "1",
                    "--bench-workload", "spawn_overhead",
                    "--baseline", str(full_baseline),
                    "--json", str(tmp_path / "out.json"),
                ]
            )

    def test_size_matched_gate_baseline_accepted(self, tmp_path):
        base = run_bench(
            BenchConfig(
                small=True,
                repeats=1,
                workloads=("spawn_overhead",),
                timer=SteppingTimer(),
            )
        ).write(tmp_path / "small.json")
        code = main(
            [
                "bench",
                "--small",
                "--repeats", "1",
                "--bench-workload", "spawn_overhead",
                "--baseline", str(base),
                "--json", str(tmp_path / "out.json"),
            ]
        )
        assert code in (0, 1)  # gate ran; verdict depends on host speed
