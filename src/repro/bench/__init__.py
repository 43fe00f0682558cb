"""``repro.bench`` — the performance-tracking subsystem.

Measures the runtime's own overhead (scheduler throughput, spawn
cost, batched spawn, governor convergence, the zero-copy data plane);
emits the machine-readable ``BENCH_runtime.json`` trajectory artifact;
and gates CI on regressions against a committed baseline.  Serving,
cluster and kernel costs are measured end to end by ``benchmarks/e2e``.
Front doors: :func:`run_bench` (Python) and
``python -m repro.harness bench`` (CLI).
"""

from .report import (
    DEFAULT_TOLERANCE,
    SCHEMA,
    BaselineComparison,
    BenchReport,
    Metric,
    MetricComparison,
    compare_to_baseline,
    format_metrics_table,
    load_report,
    merge_metrics,
)
from .runner import BenchConfig, run_bench
from .timers import BenchSample, TimerFn, default_timer, sample
from .workloads import WORKLOADS, calibrate

__all__ = [
    "SCHEMA",
    "DEFAULT_TOLERANCE",
    "Metric",
    "MetricComparison",
    "BaselineComparison",
    "BenchReport",
    "BenchConfig",
    "BenchSample",
    "TimerFn",
    "WORKLOADS",
    "calibrate",
    "compare_to_baseline",
    "default_timer",
    "format_metrics_table",
    "load_report",
    "merge_metrics",
    "run_bench",
    "sample",
]
