"""``repro.obs`` — the live telemetry plane.

Three pieces, all dependency-free:

* :mod:`repro.obs.registry` — ``Counter``/``Gauge``/``Histogram`` with
  bounded label sets and lock-cheap per-thread shards, exposed as
  Prometheus text or stable JSON.
* :mod:`repro.obs.spans` — request-scoped spans carried on
  ``JobRequest`` across gateway → cluster → shard → scheduler, exported
  to a JSON-lines span log and merged into chrome-trace ``group_meta``.
* :mod:`repro.obs.top` — the ``python -m repro.harness top`` renderer
  over the TCP gateway's ``stats``/``metrics`` verbs.

The whole plane sits behind one switch.  :func:`obs_enabled` is
consulted at *construction* time: components capture metric handles and
span recorders when it is on and hold ``None`` otherwise, so a disabled
system pays a single attribute test per instrumented site.  Default is
**on** (``benchmarks/e2e`` reports the cost as ``obs.off_speedup`` and
``trace.overhead_frac``); set the environment variable ``REPRO_OBS=0`` or call
:func:`set_obs_enabled` before building services to switch it off.
"""

from __future__ import annotations

import os

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    DEFAULT_BUCKETS,
    DEFAULT_MAX_SERIES,
    OVERFLOW_LABEL,
)
from .spans import Span, SpanRecorder, new_span_id, new_trace_id, start_span
from .top import render_top, run_top

__all__ = [
    "render_top",
    "run_top",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SERIES",
    "OVERFLOW_LABEL",
    "Span",
    "SpanRecorder",
    "new_span_id",
    "new_trace_id",
    "start_span",
    "obs_enabled",
    "set_obs_enabled",
    "global_registry",
    "global_recorder",
    "reset_global_obs",
]

_enabled = os.environ.get("REPRO_OBS", "1") not in ("0", "false", "off")
_registry = MetricsRegistry()
_recorder = SpanRecorder()


def obs_enabled() -> bool:
    """Whether newly-built components should instrument themselves."""
    return _enabled


def set_obs_enabled(on: bool) -> bool:
    """Flip the telemetry switch; returns the *previous* value.

    Affects components built after the call — already-built services
    keep the handles they captured.
    """
    global _enabled
    prev = _enabled
    _enabled = bool(on)
    return prev


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (ad-hoc callers; services may
    own a private one so scrapes reconcile per-run)."""
    return _registry


def global_recorder() -> SpanRecorder:
    """The process-wide default span recorder."""
    return _recorder


def reset_global_obs() -> None:
    """Fresh default registry + recorder (test isolation)."""
    global _registry, _recorder
    _registry = MetricsRegistry()
    _recorder = SpanRecorder()
