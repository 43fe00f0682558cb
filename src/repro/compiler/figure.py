"""``fig-compile``: the compile tier's specialized-vs-interpreted figure.

One identical job stream per servable kernel is served twice through
:class:`~repro.serve.TaskService` — once interpreted
(``compile="off"``), once specialized (``compile="specialize"``) — and
the figure reports, per kernel, the jobs/s of both runs, the headline
speedup, the logical task count versus the chunk tasks actually
spawned, and a bit-parity verdict on outputs and admission counters
(the tier's contract: faster, never different).  A final profiled run
(``specialize:profile=true``) surfaces the shallow profiler's
per-callee timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import RuntimeConfig
from ..harness.report import format_table
from ..serve import JobReport, JobRequest, TaskService

__all__ = ["CompileFigData", "fig_compile"]

#: Kernels the figure streams, with per-job argument builders sized by
#: ``small``.
def _kernel_args(small: bool) -> dict[str, dict]:
    size = 64 if small else 128
    return {
        "sobel": {"size": size},
        "dct": {"size": size},
        "mc-pi": {"blocks": 16, "samples": 500 if small else 2000},
    }


@dataclass
class CompileFigData:
    """Raw numbers of one fig-compile run plus the rendered view."""

    engine: str
    n_jobs: int
    #: Per-kernel rows: jobs/s off/on, speedup, logical vs chunk tasks.
    kernels: dict[str, dict] = field(default_factory=dict)
    #: Compiled-body cache counters of the specialized service.
    cache_stats: dict = field(default_factory=dict)
    #: Per-callee shallow-profiler timings from the profiled run.
    profile: dict[str, dict] = field(default_factory=dict)

    @property
    def parity(self) -> bool:
        """Outputs and admission counters identical on every kernel."""
        return all(row["parity"] for row in self.kernels.values())

    def speedup(self, kernel: str) -> float:
        return self.kernels[kernel]["speedup"]

    def render(self) -> str:
        rows = []
        for name, r in self.kernels.items():
            rows.append(
                [
                    name,
                    r["jobs_per_s_off"],
                    r["jobs_per_s_on"],
                    r["speedup"],
                    r["logical_tasks"],
                    r["chunk_tasks"],
                    "yes" if r["parity"] else "NO",
                ]
            )
        sections = [
            format_table(
                [
                    "kernel", "jobs/s off", "jobs/s on", "speedup",
                    "logical tasks", "chunk tasks", "bit-parity",
                ],
                rows,
                title=(
                    f"[fig-compile] {self.n_jobs} jobs per kernel on "
                    f"'{self.engine}', compile=specialize vs off"
                ),
            )
        ]
        if self.profile:
            sections.append(
                format_table(
                    ["callee", "calls", "total (ms)", "mean (us)"],
                    [
                        [
                            callee,
                            rec["calls"],
                            rec["total_s"] * 1e3,
                            rec["mean_us"],
                        ]
                        for callee, rec in sorted(self.profile.items())
                    ],
                    title="shallow profiler (specialize:profile=true)",
                )
            )
        verdict = "PASS" if self.parity else "FAIL"
        sections.append(
            f"semantic transparency (outputs + admission counters): "
            f"{verdict}; compiled-body cache: "
            f"{self.cache_stats.get('compiles', 0)} compiles, "
            f"{self.cache_stats.get('hits', 0)} hits"
        )
        return "\n\n".join(sections)


def _stream(
    kernel: str,
    args_base: dict,
    n_jobs: int,
    compile_spec: str,
    n_workers: int,
    engine: str,
) -> tuple[list[JobReport], float, TaskService]:
    """Serve one kernel's job stream; returns (reports, wall_s, svc)."""
    svc = TaskService(
        RuntimeConfig(
            policy="gtb-max",
            n_workers=n_workers,
            engine=engine,
            compile=compile_spec,
        ),
        compute_quality=False,
    )
    reports = []
    t0 = time.perf_counter()
    with svc:
        for j in range(n_jobs):
            # Distinct seeds: the figure must measure serving, not the
            # approximate-result cache.
            reports.append(
                svc.submit(
                    JobRequest(
                        tenant="standard",
                        kernel=kernel,
                        args={**args_base, "seed": j},
                        ratio=0.7,
                    )
                )
            )
            svc.flush()
    wall = time.perf_counter() - t0
    return reports, wall, svc


def _outputs_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b


def fig_compile(
    small: bool = False,
    n_workers: int = 16,
    engine: str = "simulated",
    n_jobs: int | None = None,
) -> CompileFigData:
    """Run the specialized-vs-interpreted comparison per kernel."""
    n_jobs = n_jobs if n_jobs is not None else (6 if small else 12)
    data = CompileFigData(engine=engine, n_jobs=n_jobs)

    for kernel, args_base in _kernel_args(small).items():
        off_reports, off_wall, _ = _stream(
            kernel, args_base, n_jobs, "off", n_workers, engine
        )
        on_reports, on_wall, svc = _stream(
            kernel, args_base, n_jobs, "specialize", n_workers, engine
        )
        parity = all(
            _outputs_equal(a.output, b.output)
            and (a.tasks_total, a.accurate, a.approximate, a.dropped)
            == (b.tasks_total, b.accurate, b.approximate, b.dropped)
            for a, b in zip(off_reports, on_reports)
        )
        chunk_tasks = sum(
            meta.get("n_chunks", 0) for meta in svc.job_meta.values()
        )
        data.kernels[kernel] = {
            "jobs_per_s_off": n_jobs / max(off_wall, 1e-12),
            "jobs_per_s_on": n_jobs / max(on_wall, 1e-12),
            "speedup": off_wall / max(on_wall, 1e-12),
            "logical_tasks": sum(r.tasks_total for r in on_reports),
            "chunk_tasks": chunk_tasks,
            "parity": parity,
        }
        data.cache_stats = svc._specializer.stats()

    # One profiled sobel stream for the per-callee timing table.
    from .specialize import clear_profile

    clear_profile()
    _, _, prof_svc = _stream(
        "sobel",
        _kernel_args(small)["sobel"],
        2,
        "specialize:profile=true",
        n_workers,
        engine,
    )
    for meta in prof_svc.job_meta.values():
        for callee, rec in meta.get("profile", {}).items():
            agg = data.profile.setdefault(
                callee, {"calls": 0, "total_s": 0.0, "mean_us": 0.0}
            )
            agg["calls"] += rec["calls"]
            agg["total_s"] += rec["total_s"]
    for rec in data.profile.values():
        if rec["calls"]:
            rec["mean_us"] = rec["total_s"] / rec["calls"] * 1e6
    return data
