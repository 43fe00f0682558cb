"""Summary arithmetic: percentiles within a rep, medians over reps."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2
    samples or a zero median) - the driver's steadiness measure."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def over_reps(values) -> dict:
    """One metric's per-rep values -> reported value (the median over
    reps), its spread, and the rep count."""
    return {
        "value": statistics.median(values),
        "spread": spread(values),
        "reps": len(values),
    }


def worse_by(metric: dict, first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` is worse (negative when
    better), honouring the metric's ``better`` direction."""
    if not first:
        return 0.0
    delta = (second - first) / abs(first)
    return -delta if metric["better"] == "higher" else delta


#: End-to-end metrics computed once per repetition.
REP_METRICS = (
    "ops_per_s",
    "latency_p50_ms",
    "latency_p95_ms",
    "energy_j_per_op",
)


def summarize_rep(
    wall_s: float,
    latencies_s,
    failed: int,
    energy_j: float,
    energy_ops: int,
) -> dict:
    """One repetition's end-to-end numbers.  A failed op still counts
    as attempted; it is reported through ``failed``, never dropped."""
    ops = len(latencies_s)
    return {
        "ops": ops,
        "failed": failed,
        "ops_per_s": ops / wall_s,
        "latency_p50_ms": percentile(latencies_s, 50) * 1e3,
        "latency_p95_ms": percentile(latencies_s, 95) * 1e3,
        "energy_j_per_op": energy_j / energy_ops,
    }


def aggregate(reps: list[dict]) -> dict:
    """Per-rep summaries -> attempted / failed / failed_frac and, for
    each per-rep metric, the median over reps with its spread."""
    attempted = sum(rep["ops"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    out = {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {},
    }
    for name in REP_METRICS:
        out["metrics"][name] = over_reps([rep[name] for rep in reps])
        out["metrics"][name]["samples"] = attempted
    return out
