"""What one fresh child process does: set up a workload, then measure
it, trace it, or just report how long set-up took.

``run.py`` spawns this (through its ``--child`` switch) so that every
workload starts from a cold interpreter and ``setup_s`` counts process
start, imports, construction/boot and the warm-up's first correct ops.
"""

from __future__ import annotations

import collections
import os
import platform
import statistics
import subprocess
import time

import numpy

import loadgen
import stats
import trace
import workloads
from repro.bench import calibrate
from repro.obs import set_obs_enabled

#: Repetitions a timed run never goes below, however short ``seconds``.
MIN_REPS = 3
clock = workloads.clock


def _summary(result: workloads.RepResult) -> dict:
    return stats.summarize_rep(
        result.wall_s,
        result.latencies_s,
        len(result.failures),
        result.energy_j,
        result.energy_ops,
    )


def _median_rate(results) -> float:
    return statistics.median(_summary(r)["ops_per_s"] for r in results)


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=workloads.ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def header(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "ops_per_rep": loadgen.OPS_PER_REP[workload],
        "warmup_ops": loadgen.WARMUP_OPS[workload],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
    }


def setup_probe(workload: str, seed: int, spawned_at: float) -> dict:
    wl = workloads.make(workload, seed)
    try:
        wl.setup()
        return {"setup_s": time.time() - spawned_at}
    finally:
        wl.close()


def measure(
    workload: str,
    seed: int,
    seconds: float,
    reps: int | None,
    spawned_at: float,
) -> dict:
    """Repeat the workload's fixed op list for ``reps`` repetitions, or
    until another one would overrun ``seconds``."""
    wl = workloads.make(workload, seed)
    try:
        wl.setup()
        setup_s = time.time() - spawned_at
        calib_before = calibrate()
        summaries, failures = [], []
        t_start, longest = clock(), 0.0
        while True:
            t_rep = clock()
            result = wl.run_rep(len(summaries))
            longest = max(longest, clock() - t_rep)
            summaries.append(_summary(result))
            failures += result.failures
            if reps is not None:
                if len(summaries) >= reps:
                    break
            elif (
                len(summaries) >= MIN_REPS
                and clock() - t_start + longest > seconds
            ):
                break
        calib_after = calibrate()
        peak_rss_mb = wl.peak_rss_mb()
    finally:
        wl.close()
    return {
        "header": header(workload, seed),
        "setup_s": setup_s,
        "calibration_ops_per_s": [calib_before, calib_after],
        "peak_rss_mb": peak_rss_mb,
        "reps": summaries,
        "failures": failures[:10],
    }


def traced(workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced repetitions (at least one pair),
    then derive every per-layer number from the traced ones."""
    wl = workloads.make(workload, seed, traced=True)
    tracer = trace.Tracer()
    trace.install(tracer)
    extras: dict = {}
    serve_like = isinstance(wl, workloads.ServeWorkload)

    def loaded(service) -> None:
        if workload == "serve_cold":
            extras["obs.scrape_ms"] = (
                trace.median_call_us(service.metrics_snapshot, 10) / 1e3
            )
        if workload == "cluster_cold":
            views = [shard.service.cache for shard in service.shards]
            hits = sum(v.stats.hits + v.stats.degraded_hits for v in views)
            extras["cluster.remote_hit_frac"] = (
                sum(v.remote_hits for v in views) / hits if hits else 0.0
            )

    try:
        wl.setup()
        plain, with_trace = [], []
        t_start, longest = clock(), 0.0
        while True:
            t_pair = clock()
            plain.append(wl.run_rep(2 * len(plain)))
            kwargs = {"loaded": loaded} if serve_like else {}
            with_trace.append(
                wl.run_rep(2 * len(with_trace) + 1, around=tracer, **kwargs)
            )
            longest = max(longest, clock() - t_pair)
            if clock() - t_start + longest > seconds:
                break
        results = plain + with_trace
        plain_rate = _median_rate(plain)
        if workload == "serve_cold":
            previous = set_obs_enabled(False)
            try:
                off = wl.run_rep(2 * len(plain))
            finally:
                set_obs_enabled(previous)
            results.append(off)
            extras["obs.off_speedup"] = _median_rate([off]) / plain_rate

        spans = tracer.spans
        statuses = sum(
            (r.statuses for r in with_trace), start=collections.Counter()
        )
        layers = {
            "trace.overhead_frac": 1.0 - _median_rate(with_trace) / plain_rate
        }
        layers.update(trace.serve_metrics(spans, statuses))
        layers.update(trace.cluster_metrics(spans))
        layers.update(trace.runtime_metrics(spans))
        layers.update(
            trace.coverage(
                spans, [(r.started, r.started + r.wall_s) for r in with_trace]
            )
        )
        waterfall = None
        if workload == "runtime_dispatch":
            layers.update(trace.dispatch_metrics(with_trace))
        elif workload == "paper_cells":
            layers.update(trace.paper_metrics(spans, with_trace))
        elif workload == "wire_closed":
            records = [rec for r in with_trace for rec in r.records]
            joined, rows = trace.wire_join(spans, records)
            layers.update(trace.gateway_probes(wl.clients[0], records))
            layers.update(joined)
            waterfall = trace.render_waterfall(rows) if rows else None
        layers.update(extras)
    finally:
        wl.close()
    return {
        "header": header(workload, seed),
        "reps": [_summary(r) for r in results],
        "failures": [f for r in results for f in r.failures][:10],
        "layers": layers,
        "spans": len(spans),
        "waterfall": waterfall,
    }
