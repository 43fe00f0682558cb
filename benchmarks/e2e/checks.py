"""When an op counts as failed.

Each check returns ``None`` for a correct answer or a one-line reason.
Reports are checked in their wire form (``JobReport.to_dict()``), so
the in-process and socket workloads share one rule set.
"""

from __future__ import annotations

import math

from loadgen import GROUP_RATIO, GROUP_TASKS, TENANT_RATIO_FLOOR

#: How far the served ratio may sit from the request when not degraded.
RATIO_TOLERANCE = 0.05
#: Statuses that cost nothing: answered from cache or an in-round leader.
FREE_STATUSES = ("cached", "cached-degraded", "coalesced")
#: Jacobi's accurate cell iterates to its native tolerance, so it lands
#: near the direct-solve reference instead of on it.
JACOBI_ACCURATE_TOLERANCE = 1e-4
MONOTONE_EPS = 1e-9


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_job(report: dict, ratio_requested: float) -> str | None:
    code = report.get("code")
    if code != 200:
        return f"code {code} ({report.get('status')}: {report.get('detail')})"
    counts = (
        report.get("accurate", 0)
        + report.get("approximate", 0)
        + report.get("dropped", 0)
    )
    total = report.get("tasks_total")
    if counts != total:
        return f"task counts {counts} != tasks_total {total}"
    served = report.get("ratio_served")
    status = report.get("status")
    if not _finite(served) or served < TENANT_RATIO_FLOOR:
        return f"served ratio {served} below tenant floor"
    if (
        status != "cached-degraded"
        and abs(served - ratio_requested) > RATIO_TOLERANCE
    ):
        return f"served ratio {served} vs requested {ratio_requested}"
    energy = report.get("energy_j")
    if status == "executed" and not (_finite(energy) and energy > 0):
        return f"executed job billed {energy} J"
    if status in FREE_STATUSES and energy != 0:
        return f"{status} job billed {energy} J"
    if not _finite(report.get("quality")):
        return f"quality {report.get('quality')!r} missing or non-finite"
    return None


def check_group(
    policy: str, accurate: int, approximate: int, dropped: int
) -> str | None:
    total = accurate + approximate + dropped
    if total != GROUP_TASKS:
        return f"group counts sum to {total}, not {GROUP_TASKS}"
    achieved = accurate / total
    if policy == "accurate":
        # The significance-agnostic baseline ignores the ratio.
        return None if achieved == 1.0 else f"accurate ran {achieved:.3f}"
    tolerance = 0.05 if policy.startswith("lqh") else 0.02
    if abs(achieved - GROUP_RATIO) > tolerance:
        return f"achieved ratio {achieved:.3f} vs {GROUP_RATIO}"
    return None


def check_cell(row: dict, kernel: str, degree: str | None) -> str | None:
    counts = row["accurate"] + row["approximate"] + row["dropped"]
    if counts != row["tasks_total"]:
        return f"task counts {counts} != tasks_total {row['tasks_total']}"
    if not (_finite(row["energy_j"]) and row["energy_j"] > 0):
        return f"cell energy {row['energy_j']}"
    quality = row["quality_value"]
    if not _finite(quality):
        return f"quality {quality!r} missing or non-finite"
    if degree is None:
        limit = JACOBI_ACCURATE_TOLERANCE if kernel == "jacobi" else 0.0
        if quality > limit:
            return f"accurate cell differs from the reference by {quality}"
    return None


def check_monotone(mild_to_aggressive: list[dict]) -> list[str | None]:
    """Mild -> Medium -> Aggressive rows of one kernel x policy: energy
    must not rise and quality (lower is better) must not improve.  The
    later row of an offending pair is the failed op."""
    verdicts: list[str | None] = [None] * len(mild_to_aggressive)
    for i in range(1, len(mild_to_aggressive)):
        prev, row = mild_to_aggressive[i - 1], mild_to_aggressive[i]
        if row["energy_j"] > prev["energy_j"] + MONOTONE_EPS:
            verdicts[i] = "energy rose with the approximation degree"
        elif row["quality_value"] < prev["quality_value"] - MONOTONE_EPS:
            verdicts[i] = "quality improved with the approximation degree"
    return verdicts
