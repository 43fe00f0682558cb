"""Tests for the bench report schema and baseline-comparison logic."""

import json

import pytest

from repro.bench.report import (
    SCHEMA,
    BenchReport,
    Metric,
    compare_to_baseline,
    format_metrics_table,
    load_report,
    merge_metrics,
)
from repro.runtime.errors import ConfigError


def mk_report(**metrics) -> BenchReport:
    return BenchReport(
        small=True,
        repeats=2,
        n_workers=16,
        calibration_ops_per_s=1e8,
        metrics=dict(metrics),
    )


HIGHER = dict(unit="tasks/s", higher_is_better=True)
LOWER = dict(unit="s", higher_is_better=False)


class TestMetric:
    def test_round_trip(self):
        m = Metric(42.5, "tasks/s", higher_is_better=True, gated=True)
        assert Metric.from_dict(m.to_dict()) == m

    def test_from_dict_defaults(self):
        m = Metric.from_dict({"value": 3})
        assert m.value == 3.0
        assert not m.higher_is_better and not m.gated


class TestStableJson:
    def test_schema_tag_and_shape(self):
        data = json.loads(mk_report(x=Metric(1.0, **HIGHER)).to_json())
        assert data["schema"] == SCHEMA
        assert data["config"] == {
            "small": True, "repeats": 2, "n_workers": 16,
        }
        assert "x" in data["metrics"]

    def test_serialization_is_deterministic(self):
        a = mk_report(b=Metric(2.0, **LOWER), a=Metric(1.0, **HIGHER))
        b = mk_report(a=Metric(1.0, **HIGHER), b=Metric(2.0, **LOWER))
        assert a.to_json() == b.to_json()

    def test_newline_terminated(self):
        assert mk_report().to_json().endswith("}\n")

    def test_write_and_load_round_trip(self, tmp_path):
        report = mk_report(
            m1=Metric(123.456789, **HIGHER),
            m2=Metric(0.5, unit="s", higher_is_better=False, gated=True),
        )
        path = report.write(tmp_path / "bench.json")
        loaded = load_report(path)
        assert set(loaded) == {"m1", "m2"}
        assert loaded["m2"].gated and not loaded["m1"].gated
        assert loaded["m1"].value == pytest.approx(123.457, rel=1e-4)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9", "metrics": {}}))
        with pytest.raises(ConfigError, match="schema"):
            load_report(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_report(tmp_path / "absent.json")

    def test_load_rejects_missing_metrics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": SCHEMA}))
        with pytest.raises(ConfigError, match="metrics"):
            load_report(path)


class TestCompare:
    def test_improvement_higher_is_better(self):
        cmp_ = compare_to_baseline(
            {"t": Metric(200.0, gated=True, **HIGHER)},
            {"t": Metric(100.0, gated=True, **HIGHER)},
        )
        (row,) = cmp_.metrics
        assert row.speedup == pytest.approx(2.0)
        assert not row.regressed and cmp_.ok

    def test_improvement_lower_is_better(self):
        cmp_ = compare_to_baseline(
            {"t": Metric(0.5, gated=True, **LOWER)},
            {"t": Metric(1.0, gated=True, **LOWER)},
        )
        assert cmp_.metrics[0].speedup == pytest.approx(2.0)
        assert cmp_.ok

    def test_regression_beyond_tolerance_fails(self):
        cmp_ = compare_to_baseline(
            {"t": Metric(70.0, gated=True, **HIGHER)},
            {"t": Metric(100.0, gated=True, **HIGHER)},
            tolerance=0.25,
        )
        assert not cmp_.ok
        assert cmp_.regressions[0].name == "t"

    def test_regression_within_tolerance_passes(self):
        cmp_ = compare_to_baseline(
            {"t": Metric(80.0, gated=True, **HIGHER)},
            {"t": Metric(100.0, gated=True, **HIGHER)},
            tolerance=0.25,
        )
        assert cmp_.ok  # 0.80 >= 1 - 0.25

    def test_lower_is_better_regression(self):
        cmp_ = compare_to_baseline(
            {"t": Metric(2.0, gated=True, **LOWER)},
            {"t": Metric(1.0, gated=True, **LOWER)},
            tolerance=0.25,
        )
        assert not cmp_.ok

    def test_ungated_metric_never_regresses_by_default(self):
        cmp_ = compare_to_baseline(
            {"t": Metric(1.0, **HIGHER)},
            {"t": Metric(100.0, **HIGHER)},
        )
        assert cmp_.ok
        assert cmp_.metrics[0].speedup == pytest.approx(0.01)

    def test_gating_follows_the_baseline_flag(self):
        # The *baseline* decides gating, so un-gating a metric requires
        # touching the committed file, not the code under test.
        cmp_ = compare_to_baseline(
            {"t": Metric(1.0, **HIGHER)},
            {"t": Metric(100.0, gated=True, **HIGHER)},
        )
        assert not cmp_.ok

    def test_disjoint_metrics_ignored(self):
        cmp_ = compare_to_baseline(
            {"new": Metric(1.0, gated=True, **HIGHER)},
            {"old": Metric(100.0, gated=True, **HIGHER)},
        )
        assert cmp_.metrics == () and cmp_.ok

    def test_degenerate_baseline_skipped(self):
        cmp_ = compare_to_baseline(
            {"t": Metric(1.0, gated=True, **HIGHER)},
            {"t": Metric(0.0, gated=True, **HIGHER)},
        )
        assert cmp_.metrics == ()

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tolerance"):
            compare_to_baseline({}, {}, tolerance=-0.1)

    def test_summary_mentions_regressions(self):
        cmp_ = compare_to_baseline(
            {"t": Metric(1.0, gated=True, **HIGHER)},
            {"t": Metric(100.0, gated=True, **HIGHER)},
            label="seed",
        )
        text = cmp_.summary()
        assert "REGRESSED" in text and "[seed]" in text


class TestHelpers:
    def test_merge_metrics_unions(self):
        merged = merge_metrics(
            [{"a": Metric(1.0, **HIGHER)}, {"b": Metric(2.0, **LOWER)}]
        )
        assert set(merged) == {"a", "b"}

    def test_merge_metrics_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="duplicate"):
            merge_metrics(
                [{"a": Metric(1.0, **HIGHER)}, {"a": Metric(2.0, **LOWER)}]
            )

    def test_format_table_lists_all_metrics(self):
        text = format_metrics_table(
            {
                "a.fast": Metric(1.0, gated=True, **HIGHER),
                "b.slow": Metric(2.0, **LOWER),
            }
        )
        assert "a.fast" in text and "b.slow" in text
        assert "[gated]" in text

    def test_format_table_empty(self):
        assert "no metrics" in format_metrics_table({})
