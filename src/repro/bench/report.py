"""Bench report schema, stable JSON export and baseline comparison.

The contract with CI (see ``.github/workflows/ci.yml``): the runner
emits one ``BENCH_runtime.json`` per invocation, with deterministic key
order, a fixed schema tag and a ``gated`` flag on every metric that is
meaningful to compare across hosts.  Comparison against a committed
baseline happens on the gated metrics only — those are normalized
against the in-run Python calibration loop, so a slow CI container and
a fast laptop judge the runtime by the same yardstick.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..runtime.errors import ConfigError

__all__ = [
    "SCHEMA",
    "Metric",
    "BenchReport",
    "MetricComparison",
    "BaselineComparison",
    "compare_to_baseline",
    "load_report",
]

#: Schema tag written into (and required from) every report file.
SCHEMA = "repro-bench/v1"

#: Default regression tolerance: a gated metric may be up to this
#: fraction worse than the baseline before CI fails (satellite spec:
#: "fails on >25% regression vs the committed baseline").
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True)
class Metric:
    """One measured quantity.

    ``gated=True`` marks host-portable metrics (normalized against the
    calibration loop) that baseline comparison may fail CI on; absolute
    wall-clock metrics stay informational.
    """

    value: float
    unit: str
    higher_is_better: bool
    gated: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "value": _round_sig(self.value),
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "gated": self.gated,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Metric":
        return cls(
            value=float(data["value"]),
            unit=str(data.get("unit", "")),
            higher_is_better=bool(data.get("higher_is_better", False)),
            gated=bool(data.get("gated", False)),
        )


@dataclass(frozen=True)
class MetricComparison:
    """One metric measured now versus its baseline value.

    ``speedup`` is direction-normalized: > 1.0 always means "better than
    baseline", whichever way the metric points.
    """

    name: str
    current: float
    baseline: float
    speedup: float
    gated: bool
    regressed: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "current": _round_sig(self.current),
            "baseline": _round_sig(self.baseline),
            "speedup": _round_sig(self.speedup),
            "gated": self.gated,
            "regressed": self.regressed,
        }


@dataclass(frozen=True)
class BaselineComparison:
    """Outcome of comparing a report against one baseline file."""

    label: str
    tolerance: float
    metrics: tuple[MetricComparison, ...]

    @property
    def regressions(self) -> tuple[MetricComparison, ...]:
        return tuple(m for m in self.metrics if m.regressed)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict[str, Any]:
        return {
            "tolerance": self.tolerance,
            "ok": self.ok,
            "regressions": sorted(m.name for m in self.regressions),
            "metrics": {m.name: m.to_dict() for m in self.metrics},
        }

    def summary(self) -> str:
        lines = [f"[{self.label}] tolerance ±{self.tolerance:.0%}"]
        for m in self.metrics:
            if m.regressed:
                flag = "REGRESSED"
            else:
                flag = "gated" if m.gated else "info"
            lines.append(
                f"  {m.name}: {m.current:.6g} vs {m.baseline:.6g} "
                f"(x{m.speedup:.2f}, {flag})"
            )
        return "\n".join(lines)


@dataclass
class BenchReport:
    """Everything one ``repro.bench`` invocation measured."""

    small: bool
    repeats: int
    n_workers: int
    calibration_ops_per_s: float
    metrics: dict[str, Metric] = field(default_factory=dict)
    comparisons: dict[str, BaselineComparison] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "config": {
                "small": self.small,
                "repeats": self.repeats,
                "n_workers": self.n_workers,
            },
            "host": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": sys.platform,
            },
            "calibration": {
                "ops_per_s": _round_sig(self.calibration_ops_per_s),
            },
            "metrics": {
                name: m.to_dict() for name, m in sorted(self.metrics.items())
            },
            "comparisons": {
                label: c.to_dict()
                for label, c in sorted(self.comparisons.items())
            },
        }

    def to_json(self) -> str:
        """Stable serialization: sorted keys, fixed indent, newline-EOF."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path


def _round_sig(value: float, digits: int = 6) -> float:
    """Round to significant digits so report diffs stay readable."""
    if value == 0 or value != value or value in (float("inf"), float("-inf")):
        return value
    return float(f"{value:.{digits}g}")


def load_report(path: str | Path) -> dict[str, Metric]:
    """Load the ``metrics`` mapping of a previously written report."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read bench report {path}: {exc}") from exc
    if data.get("schema") != SCHEMA:
        raise ConfigError(
            f"bench report {path} has schema {data.get('schema')!r}; "
            f"expected {SCHEMA!r}"
        )
    metrics = data.get("metrics")
    if not isinstance(metrics, dict):
        raise ConfigError(f"bench report {path} has no metrics mapping")
    return {name: Metric.from_dict(m) for name, m in metrics.items()}


def compare_to_baseline(
    current: dict[str, Metric],
    baseline: dict[str, Metric],
    tolerance: float = DEFAULT_TOLERANCE,
    label: str = "baseline",
) -> BaselineComparison:
    """Compare current metrics against a baseline with a tolerance band.

    Every metric present in both sets is compared; a metric *regresses*
    when it is worse than the baseline by more than ``tolerance``
    (fractional) *and* it is gated in the baseline.  Metrics missing on
    either side are ignored — adding a microbenchmark must not fail CI
    retroactively.
    """
    if tolerance < 0:
        raise ConfigError(f"tolerance must be >= 0, got {tolerance}")
    rows: list[MetricComparison] = []
    for name in sorted(set(current) & set(baseline)):
        cur, base = current[name], baseline[name]
        if base.value <= 0 or cur.value < 0:
            # Degenerate measurements cannot be ratio-compared.
            continue
        if base.higher_is_better:
            speedup = cur.value / base.value
        else:
            speedup = base.value / max(cur.value, 1e-300)
        gated = base.gated
        too_slow = speedup < (1.0 - tolerance)
        regressed = too_slow and gated
        rows.append(
            MetricComparison(
                name=name,
                current=cur.value,
                baseline=base.value,
                speedup=speedup,
                gated=gated,
                regressed=regressed,
            )
        )
    return BaselineComparison(
        label=label, tolerance=tolerance, metrics=tuple(rows)
    )


def format_metrics_table(metrics: dict[str, Metric]) -> str:
    """Aligned text rendering of a metrics mapping (CLI output)."""
    if not metrics:
        return "(no metrics)"
    width = max(len(name) for name in metrics)
    lines = []
    for name in sorted(metrics):
        m = metrics[name]
        arrow = "↑" if m.higher_is_better else "↓"
        gate = "  [gated]" if m.gated else ""
        lines.append(
            f"{name.ljust(width)}  {m.value:>12.6g} {m.unit} {arrow}{gate}"
        )
    return "\n".join(lines)


def merge_metrics(parts: Iterable[dict[str, Metric]]) -> dict[str, Metric]:
    """Union of per-workload metric dicts; duplicate names are a bug."""
    out: dict[str, Metric] = {}
    for part in parts:
        dup = set(out) & set(part)
        if dup:
            raise ConfigError(f"duplicate bench metric names: {sorted(dup)}")
        out.update(part)
    return out
