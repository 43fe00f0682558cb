"""``TraceFrame``: a tiny columnar frame over serve traces.

The scenario conformance harness (:mod:`repro.serve.scenarios`) wants
the pandas idiom — build a frame of job reports, filter, group, and
aggregate into figures — without requiring pandas: the toolchain here
is numpy-only.  :class:`TraceFrame` is the minimal columnar core of
that idiom, pure Python, with :meth:`to_pandas` as an optional bridge
for notebooks that do have pandas installed.

Rows are plain dicts; columns are aligned lists.  Missing keys
materialize as ``None``, so frames built from heterogeneous report
dicts (batch jobs carry no ``frame``, stream frames no
``round_quality``) stay rectangular.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from ..runtime.errors import ConfigError

__all__ = ["TraceFrame"]


class TraceFrame:
    """An immutable-ish columnar frame (dict of equal-length lists)."""

    def __init__(self, columns: dict[str, list] | None = None) -> None:
        columns = dict(columns or {})
        lengths = {name: len(vals) for name, vals in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ConfigError(
                f"TraceFrame columns must align, got lengths {lengths}"
            )
        self._columns: dict[str, list] = columns

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "TraceFrame":
        """Build from row dicts; the column set is the key union, rows
        missing a key hold ``None``."""
        rows = list(records)
        names: list[str] = []
        seen: set[str] = set()
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.add(key)
                    names.append(key)
        return cls(
            {name: [row.get(name) for row in rows] for name in names}
        )

    @classmethod
    def from_reports(cls, reports: Iterable[Any]) -> "TraceFrame":
        """Build from serve :class:`~repro.serve.JobReport`
        objects (or anything exposing ``to_dict``)."""
        return cls.from_records(
            r.to_dict() if hasattr(r, "to_dict") else dict(r)
            for r in reports
        )

    # -- shape -----------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TraceFrame {len(self)} rows x "
            f"{len(self._columns)} cols>"
        )

    # -- access ----------------------------------------------------------
    def col(self, name: str) -> list:
        if name not in self._columns:
            raise ConfigError(
                f"no column {name!r} (have {self.columns})"
            )
        return list(self._columns[name])

    def rows(self) -> Iterator[dict]:
        names = self.columns
        for i in range(len(self)):
            yield {name: self._columns[name][i] for name in names}

    def select(self, *names: str) -> "TraceFrame":
        return TraceFrame({name: self.col(name) for name in names})

    # -- transforms ------------------------------------------------------
    def filter(self, pred: Callable[[dict], bool]) -> "TraceFrame":
        return TraceFrame.from_records(
            row for row in self.rows() if pred(row)
        )

    def groupby(self, key: str) -> dict[Any, "TraceFrame"]:
        groups: dict[Any, list[dict]] = {}
        for row in self.rows():
            groups.setdefault(row.get(key), []).append(row)
        return {
            value: TraceFrame.from_records(rows)
            for value, rows in groups.items()
        }

    def with_column(
        self, name: str, fn: Callable[[dict], Any]
    ) -> "TraceFrame":
        columns = {n: self.col(n) for n in self.columns}
        columns[name] = [fn(row) for row in self.rows()]
        return TraceFrame(columns)

    # -- aggregation -----------------------------------------------------
    def _numeric(self, name: str) -> list[float]:
        return [
            float(v)
            for v in self.col(name)
            if v is not None and not isinstance(v, bool)
        ]

    def mean(self, name: str) -> float:
        vals = self._numeric(name)
        return sum(vals) / len(vals) if vals else 0.0

    def sum(self, name: str) -> float:
        return sum(self._numeric(name))

    def min(self, name: str) -> float:
        vals = self._numeric(name)
        return min(vals) if vals else 0.0

    def max(self, name: str) -> float:
        vals = self._numeric(name)
        return max(vals) if vals else 0.0

    def percentile(self, name: str, q: float) -> float:
        from ..serve.figure import percentile

        return percentile(self._numeric(name), q)

    def value_counts(self, name: str) -> dict[Any, int]:
        counts: dict[Any, int] = {}
        for v in self.col(name):
            counts[v] = counts.get(v, 0) + 1
        return counts

    # -- bridges ---------------------------------------------------------
    def to_records(self) -> list[dict]:
        return list(self.rows())

    def to_pandas(self):
        """The optional pandas bridge (raises a clear error without
        pandas installed — the harness itself never needs it)."""
        try:
            import pandas  # noqa: PLC0415
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise ConfigError(
                "to_pandas() needs pandas, which is not installed; "
                "TraceFrame itself is pandas-free"
            ) from exc
        return pandas.DataFrame(self._columns)

    def render(self, max_rows: int = 12) -> str:
        """A small fixed-width table of the first ``max_rows`` rows."""
        names = self.columns
        if not names:
            return "(empty frame)"

        def fmt(v: Any) -> str:
            if isinstance(v, float):
                return f"{v:.4g}"
            if isinstance(v, list):
                return f"[{len(v)} values]"
            return str(v)

        head = [list(map(fmt, (row[n] for n in names)))
                for row in list(self.rows())[:max_rows]]
        widths = [
            max(len(n), *(len(r[i]) for r in head)) if head else len(n)
            for i, n in enumerate(names)
        ]
        lines = [
            "  ".join(n.ljust(w) for n, w in zip(names, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines += [
            "  ".join(c.ljust(w) for c, w in zip(r, widths))
            for r in head
        ]
        if len(self) > max_rows:
            lines.append(f"... ({len(self) - max_rows} more rows)")
        return "\n".join(lines)
