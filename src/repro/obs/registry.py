"""Dependency-free metrics registry: counters, gauges, histograms.

The serve/cluster/runtime layers make significance and energy decisions
continuously; this module makes that state observable *while the system
runs* instead of only in post-hoc traces.  Three design constraints:

1. **No dependencies.**  Exposition is Prometheus text format and
   stable JSON, both produced with the standard library only.

2. **Lock-cheap hot path.**  Counters and histograms keep one cell per
   writer thread, keyed by ``threading.get_ident()``, mirroring the
   single-writer discipline of
   :class:`repro.runtime.accounting.AccountingShard`: each thread
   mutates only its own cell (a plain ``list`` so the increment is a
   single ``cell[0] += v`` under the GIL) and readers *merge* cells on
   demand.  No locks are taken on the increment path; ``dict
   .setdefault`` publishes new cells atomically.

3. **Bounded label sets.**  A metric family caps the number of distinct
   label combinations it will track (:data:`DEFAULT_MAX_SERIES`).  Once
   the cap is hit, further label values collapse onto a single
   ``~overflow~`` series and the family counts the drops — telemetry
   must never become the memory leak it is watching for.

Instrumented call sites sit behind the module-level enable switch (see
:func:`obs_enabled` / :func:`set_obs_enabled` in :mod:`repro.obs`):
components capture metric handles at construction when observability is
on and keep ``None`` otherwise, so a disabled system pays one attribute
test per site.  ``benchmarks/e2e`` measures the enabled-mode cost
against the telemetry-off baseline (``obs.off_speedup``).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SERIES",
    "OVERFLOW_LABEL",
]

#: Cap on distinct label combinations per family before new label sets
#: collapse onto the overflow series.
DEFAULT_MAX_SERIES = 64

#: Label value every post-cap series is filed under.
OVERFLOW_LABEL = "~overflow~"

#: Default histogram bucket upper bounds (seconds-flavoured, log-ish).
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """Monotonic counter with per-thread cells merged on read."""

    __slots__ = ("_cells",)

    def __init__(self) -> None:
        # thread ident -> single-element list holding that thread's sum.
        self._cells: dict[int, list[float]] = {}

    def inc(self, v: float = 1.0) -> None:
        """Add ``v`` (must be >= 0).  Safe to call from any thread."""
        if v < 0:
            raise ValueError(f"counter increment must be >= 0, got {v}")
        tid = threading.get_ident()
        cell = self._cells.get(tid)
        if cell is None:
            # setdefault publishes atomically if another call on this
            # thread raced us via reentrancy (it cannot: single thread),
            # and keeps an existing cell if the ident was recycled.
            cell = self._cells.setdefault(tid, [0.0])
        cell[0] += v

    @property
    def value(self) -> float:
        """Merged total across every writer thread's cell."""
        return sum(cell[0] for cell in list(self._cells.values()))


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, v: float) -> None:
        self._value = float(v)

    def add(self, v: float) -> None:
        """Relative adjust; only safe from a single writer thread."""
        self._value += v

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram with per-thread cells.

    Each thread's cell is ``[count, sum, b0, b1, ...]`` where ``bi``
    counts observations with ``value <= buckets[i]`` (non-cumulative per
    bucket; cumulation happens at exposition time, Prometheus-style,
    with the implicit ``+Inf`` bucket equal to ``count``).
    """

    __slots__ = ("buckets", "_cells")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.buckets = tuple(float(b) for b in buckets)
        self._cells: dict[int, list[float]] = {}

    def observe(self, v: float) -> None:
        tid = threading.get_ident()
        cell = self._cells.get(tid)
        if cell is None:
            cell = self._cells.setdefault(
                tid, [0.0, 0.0] + [0.0] * (len(self.buckets) + 1)
            )
        cell[0] += 1
        cell[1] += v
        # bisect_left gives the first bucket whose bound is >= v, i.e.
        # Prometheus "le" semantics; values above the last bound land in
        # the implicit +Inf slot at the end of the cell.
        cell[2 + bisect_left(self.buckets, v)] += 1

    def snapshot(self) -> dict:
        """Merged ``{count, sum, buckets: [(le, cumulative_count)...]}``."""
        width = len(self.buckets) + 3
        merged = [0.0] * width
        for cell in list(self._cells.values()):
            for i, v in enumerate(cell):
                merged[i] += v
        cum = 0.0
        out = []
        for i, le in enumerate(self.buckets):
            cum += merged[2 + i]
            out.append((le, cum))
        out.append((float("inf"), merged[0]))
        return {"count": merged[0], "sum": merged[1], "buckets": out}

    @property
    def count(self) -> float:
        return sum(cell[0] for cell in list(self._cells.values()))

    @property
    def sum(self) -> float:
        return sum(cell[1] for cell in list(self._cells.values()))


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


@dataclass
class MetricFamily:
    """One named metric plus every label combination seen so far."""

    name: str
    kind: str
    help: str = ""
    label_names: tuple[str, ...] = ()
    max_series: int = DEFAULT_MAX_SERIES
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    dropped_series: int = 0
    _series: dict[tuple[str, ...], Counter | Gauge | Histogram] = field(
        default_factory=dict
    )
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _make(self) -> Counter | Gauge | Histogram:
        if self.kind == "histogram":
            return Histogram(self.buckets)
        return _KINDS[self.kind]()

    def labels(self, *values: str):
        """The child metric for one label-value combination.

        Beyond :attr:`max_series` distinct combinations, every new one
        maps to the shared overflow child so cardinality stays bounded.
        """
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label "
                f"values {self.label_names}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._series.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._series.get(key)
            if child is not None:
                return child
            if len(self._series) >= self.max_series:
                self.dropped_series += 1
                key = (OVERFLOW_LABEL,) * len(self.label_names)
                child = self._series.get(key)
                if child is None:
                    child = self._series[key] = self._make()
                return child
            child = self._series[key] = self._make()
            return child

    def series(self) -> list[tuple[tuple[str, ...], object]]:
        """Stable-ordered ``(label_values, child)`` pairs."""
        return sorted(self._series.items(), key=lambda kv: kv[0])


class MetricsRegistry:
    """A namespace of metric families with stable exposition.

    Instantiable so a service can own a private registry (scrapes then
    reconcile exactly with that service's run) while the module-level
    default registry serves ad-hoc callers.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # -- family constructors ------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: tuple[str, ...],
        max_series: int,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}"
                )
            return fam
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = MetricFamily(
                    name=name,
                    kind=kind,
                    help=help,
                    label_names=tuple(labels),
                    max_series=max_series,
                    buckets=tuple(buckets),
                )
            return fam

    def counter(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ):
        fam = self._family(name, "counter", help, tuple(labels), max_series)
        return fam if fam.label_names else fam.labels()

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ):
        fam = self._family(name, "gauge", help, tuple(labels), max_series)
        return fam if fam.label_names else fam.labels()

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
    ):
        fam = self._family(
            name, "histogram", help, tuple(labels), max_series, tuple(buckets)
        )
        return fam if fam.label_names else fam.labels()

    def families(self) -> list[MetricFamily]:
        return [self._families[k] for k in sorted(self._families)]

    # -- exposition ---------------------------------------------------
    def to_dict(self) -> dict:
        """Stable JSON-ready snapshot of every family and series."""
        out: dict = {}
        for fam in self.families():
            series = []
            for values, child in fam.series():
                labels = dict(zip(fam.label_names, values))
                if fam.kind == "histogram":
                    snap = child.snapshot()
                    series.append(
                        {
                            "labels": labels,
                            "count": snap["count"],
                            "sum": snap["sum"],
                            "buckets": [
                                ["+Inf" if le == float("inf") else le, n]
                                for le, n in snap["buckets"]
                            ],
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[fam.name] = {
                "type": fam.kind,
                "help": fam.help,
                "dropped_series": fam.dropped_series,
                "series": series,
            }
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format, stable ordering."""
        lines: list[str] = []
        for fam in self.families():
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for values, child in fam.series():
                base = _label_str(fam.label_names, values)
                if fam.kind == "histogram":
                    snap = child.snapshot()
                    for le, n in snap["buckets"]:
                        le_s = "+Inf" if le == float("inf") else _fmt(le)
                        extra = _label_str(
                            fam.label_names + ("le",), values + (le_s,)
                        )
                        lines.append(f"{fam.name}_bucket{extra} {_fmt(n)}")
                    lines.append(f"{fam.name}_sum{base} {_fmt(snap['sum'])}")
                    lines.append(
                        f"{fam.name}_count{base} {_fmt(snap['count'])}"
                    )
                else:
                    lines.append(f"{fam.name}{base} {_fmt(child.value)}")
        return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    """Render floats Prometheus-style: integers without the '.0'."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _label_str(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{n}="{_escape(v)}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


def _escape(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
