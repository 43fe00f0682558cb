"""The traced pass: spans recorded from outside the program.

:class:`Tracer` wraps *public* callables of the program (class
attributes, restored on exit) and records one in-memory span per call:
name, start, end, the span that caused it, and what the call was about
(``info`` - the job id for calls that belong to one request).  A
layer's self time is its span minus the part of that interval its child
spans cover.  End-to-end numbers never come from a traced run; the
difference between the traced and untraced repetitions of this pass is
reported as ``trace.overhead_frac``.
"""

from __future__ import annotations

import collections
import json
import statistics
import threading
import time
import types

from stats import percentile

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager: patches in on enter, every attribute restored
    on exit.  Re-enterable; spans accumulate across entries."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._targets: list[tuple] = []
        self._patched: list[tuple] = []
        self._stacks = threading.local()
        #: Open spans of the thread that entered the tracer.  A span
        #: opened on an idle thread is caused by whatever the entering
        #: thread is blocked in (a cluster round fans out to shard
        #: threads), so it is parented to the top of this stack.
        self._home_stack: list[Span] = []

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Record a ``name`` span around every ``owner.attr`` call.
        ``info(args, kwargs, result)`` is evaluated once the span has
        ended (its cost lands in the caller's self time)."""
        self._targets.append((owner, attr, name, info))

    def __enter__(self) -> "Tracer":
        self._stacks = threading.local()
        self._stacks.stack = self._home_stack = []
        for owner, attr, name, info in self._targets:
            target = getattr(owner, attr)
            if not isinstance(target, (types.FunctionType, types.MethodType)):
                self.__exit__(None, None, None)
                raise TypeError(
                    f"{owner!r}.{attr} is not a plain function or method"
                )
            self._patched.append(
                (owner, attr, vars(owner).get(attr, _MISSING))
            )
            setattr(owner, attr, self._wrapper(target, name, info))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrapper(self, target, name: str, info):
        def traced(*args, **kwargs):
            stack = getattr(self._stacks, "stack", None)
            if stack is None:
                stack = self._stacks.stack = []
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home and stack is not home else None
            span = Span(name, self.clock(), parent)
            stack.append(span)
            try:
                result = target(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
                self.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        traced.__wrapped__ = target
        return traced


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def children_of(spans) -> dict:
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_times(spans) -> dict:
    """Span -> duration minus the part its direct children cover
    (overlapping children - parallel shards - are counted once)."""
    children = children_of(spans)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span] = span.duration - covered
    return out


def by_name(spans) -> dict:
    groups = collections.defaultdict(list)
    for span in spans:
        groups[span.name].append(span)
    return groups


def _median_us(spans) -> float:
    return statistics.median(s.duration for s in spans) * 1e6


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Register every layer boundary the per-layer metrics read."""
    from loadgen import KERNELS, PAPER_KERNELS
    from repro.cluster import ClusterService, EnergyLedger, HashRing
    from repro.kernels.base import get_benchmark
    from repro.runtime.scheduler import Scheduler
    from repro.serve import (
        ApproxResultCache,
        JobReport,
        JobRequest,
        ServableKernel,
        TaskService,
        get_servable,
    )

    def job_ids(args, kwargs, reports):
        return [report.job_id for report in reports]

    def admitted(args, kwargs, report):
        return {"job": report.job_id, "queued": report.status == "queued"}

    def found(args, kwargs, entry):
        return entry is not None

    # The gateway's own work is bounded by the two public calls it makes
    # per job on the event loop: request validation and report export.
    tracer.wrap(
        JobRequest,
        "from_dict",
        "gateway.decode",
        lambda args, kwargs, request: request.job_id,
    )
    tracer.wrap(
        JobReport,
        "to_dict",
        "gateway.encode",
        lambda args, kwargs, wire: args[0].job_id,
    )
    tracer.wrap(TaskService, "submit", "serve.submit", admitted)
    tracer.wrap(TaskService, "flush", "serve.flush", job_ids)
    tracer.wrap(ServableKernel, "digest", "serve.kernels.digest")
    for kernel in KERNELS:
        cls = type(get_servable(kernel))
        for attr in ("plan", "combine", "reference", "quality"):
            tracer.wrap(cls, attr, f"serve.kernels.{attr}")
    tracer.wrap(ApproxResultCache, "get", "serve.cache.lookup", found)
    tracer.wrap(
        ApproxResultCache, "get_degraded", "serve.cache.lookup", found
    )
    tracer.wrap(ApproxResultCache, "put", "serve.cache.put")

    tracer.wrap(ClusterService, "submit", "cluster.submit", admitted)
    tracer.wrap(ClusterService, "flush", "cluster.flush", job_ids)
    tracer.wrap(ClusterService, "route", "cluster.route")
    tracer.wrap(HashRing, "lookup", "cluster.ring_lookup")
    tracer.wrap(
        EnergyLedger,
        "refill",
        "cluster.ledger_refill",
        lambda args, kwargs, granted_j: granted_j > 0,
    )
    tracer.wrap(EnergyLedger, "settle_all", "cluster.ledger_settle")

    tracer.wrap(
        Scheduler,
        "spawn_many",
        "runtime.spawn_many",
        lambda args, kwargs, tasks: len(tasks),
    )
    tracer.wrap(Scheduler, "taskwait", "runtime.taskwait")
    tracer.wrap(Scheduler, "finish", "runtime.finish")

    for kernel in PAPER_KERNELS:
        cls = type(get_benchmark(kernel))
        tracer.wrap(cls, "build_input", "kernels.build_input")
        tracer.wrap(cls, "run_tasks", "kernels.run_tasks")
        tracer.wrap(cls, "run_reference", "kernels.reference")
        tracer.wrap(cls, "quality", "quality.eval")


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------
def serve_metrics(spans, statuses) -> dict:
    """serve / serve.kernels / serve.cache numbers of one traced run."""
    named = by_name(spans)
    if not named["serve.submit"]:
        return {}
    selfs = self_times(spans)
    out = {
        "serve.executed": statuses["executed"],
        "serve.cached": statuses["cached"] + statuses["cached-degraded"],
        "serve.coalesced": statuses["coalesced"],
        "serve.rejected": sum(
            n for s, n in statuses.items() if s.startswith("rejected")
        ),
    }
    submits = named["serve.submit"]
    rounds = [f for f in named["serve.flush"] if f.info]
    if submits:
        durations = [s.duration for s in submits]
        out["serve.submit_us"] = statistics.median(durations) * 1e6
        out["serve.submit_p95_us"] = percentile(durations, 95) * 1e6
    if rounds:
        jobs = sum(len(f.info) for f in rounds)
        out["serve.rounds"] = len(rounds)
        out["serve.jobs_per_round"] = jobs / len(rounds)
        out["serve.flush_us_per_job"] = (
            sum(f.duration for f in rounds) / jobs * 1e6
        )
        out["serve.flush_self_us_per_job"] = (
            sum(selfs[f] for f in rounds) / jobs * 1e6
        )
        round_of = {job: f for f in rounds for job in f.info}
        waits = [
            round_of[s.info["job"]].start - s.end
            for s in submits
            if s.info["queued"] and s.info["job"] in round_of
        ]
        if waits:
            out["serve.queue_wait_ms"] = statistics.median(waits) * 1e3

    for attr in ("digest", "plan", "combine", "reference", "quality"):
        calls = named[f"serve.kernels.{attr}"]
        if calls:
            out[f"serve.kernels.{attr}_us"] = _median_us(calls)
    plans = len(named["serve.kernels.plan"])
    out["serve.kernels.plan_calls"] = plans
    out["serve.kernels.reference_calls"] = len(
        named["serve.kernels.reference"]
    )
    if plans:
        # A plan is wasted when its job is then answered from the cache
        # or coalesced onto a leader instead of being executed.
        out["serve.kernels.plan_wasted_frac"] = (
            max(0, plans - statuses["executed"]) / plans
        )

    lookups = named["serve.cache.lookup"]
    if lookups:
        out["serve.cache.lookup_us"] = _median_us(lookups)
        out["serve.cache.hit_frac"] = sum(
            1 for s in lookups if s.info
        ) / len(lookups)
    if named["serve.cache.put"]:
        out["serve.cache.put_us"] = _median_us(named["serve.cache.put"])
    return out


def cluster_metrics(spans) -> dict:
    named = by_name(spans)
    if not named["cluster.submit"]:
        return {}
    children = children_of(spans)
    out = {}
    for key, name in (
        ("cluster.route_us", "cluster.route"),
        ("cluster.submit_us", "cluster.submit"),
        ("cluster.ledger_settle_us", "cluster.ledger_settle"),
    ):
        if named[name]:
            out[key] = _median_us(named[name])
    out["cluster.lease_refills"] = sum(
        1 for s in named["cluster.ledger_refill"] if s.info
    )
    rounds = [f for f in named["cluster.flush"] if f.info]
    if rounds:
        jobs = sum(len(f.info) for f in rounds)
        out["cluster.flush_us_per_job"] = (
            sum(f.duration for f in rounds) / jobs * 1e6
        )
        # The slowest shard sets the round: max / mean jobs per shard.
        imbalance = []
        for f in rounds:
            per_shard = [
                len(c.info or ())
                for c in children[f]
                if c.name == "serve.flush"
            ]
            if per_shard and sum(per_shard):
                imbalance.append(
                    max(per_shard) / (sum(per_shard) / len(per_shard))
                )
        if imbalance:
            out["cluster.shard_imbalance"] = statistics.fmean(imbalance)
    return out


def runtime_metrics(spans) -> dict:
    named = by_name(spans)
    out = {}
    spawns = named["runtime.spawn_many"]
    tasks = sum(s.info or 0 for s in spawns)
    out["runtime.tasks"] = tasks
    if tasks:
        out["runtime.spawn_many_us_per_task"] = (
            sum(s.duration for s in spawns) / tasks * 1e6
        )
        # finish() ends with a global barrier of its own; that one is
        # part of runtime.finish_ms, not of a group's taskwait.
        waits = [
            s
            for s in named["runtime.taskwait"]
            if s.parent is None or s.parent.name != "runtime.finish"
        ]
        out["runtime.taskwait_us_per_task"] = (
            sum(s.duration for s in waits) / tasks * 1e6
        )
    if named["runtime.finish"]:
        out["runtime.finish_ms"] = _median_us(named["runtime.finish"]) / 1e3
    return out


def dispatch_metrics(results) -> dict:
    """Per-policy / per-engine numbers of traced ``runtime_dispatch``
    reps, from the driver's own per-op records."""
    seconds = collections.Counter()
    groups = collections.Counter()
    ratio_errors = collections.defaultdict(list)
    inversions = []
    from loadgen import GROUP_RATIO, GROUP_TASKS

    for result in results:
        for (op, achieved, inversion), latency in zip(
            result.records, result.latencies_s
        ):
            policy = op.policy.split(":")[0]
            for key in (f"runtime.{policy}", f"engine.{op.engine}"):
                seconds[key] += latency
                groups[key] += 1
            ratio_errors[policy].append(abs(achieved - GROUP_RATIO))
            if inversion is not None:
                inversions.append(inversion)
    out = {
        f"{key}.tasks_per_s": groups[key] * GROUP_TASKS / seconds[key]
        for key in seconds
    }
    for policy in ("gtb", "lqh"):
        if ratio_errors[policy]:
            out[f"runtime.{policy}.ratio_error"] = statistics.fmean(
                ratio_errors[policy]
            )
    if inversions:
        out["runtime.lqh.inversion_pct"] = statistics.fmean(inversions)
    return out


def paper_metrics(spans, results) -> dict:
    from repro.kernels.base import get_benchmark

    named = by_name(spans)
    out = {}
    for key, name in (
        ("kernels.build_input_ms", "kernels.build_input"),
        ("kernels.run_tasks_ms", "kernels.run_tasks"),
        ("kernels.reference_ms", "kernels.reference"),
        ("quality.eval_ms", "quality.eval"),
        ("accounting.finish_ms", "runtime.finish"),
    ):
        if named[name]:
            out[key] = _median_us(named[name]) / 1e3
    cells = collections.defaultdict(list)
    for result in results:
        for op, latency in result.records:
            cells[op.kernel].append(latency)
    for kernel, latencies in cells.items():
        display = get_benchmark(kernel).name
        out[f"kernels.{display}.cell_ms"] = (
            statistics.median(latencies) * 1e3
        )
    return out


def coverage(spans, windows) -> dict:
    """How much of the timed windows the outermost spans cover, and how
    far self times are from adding back up to them (0 unless children
    overlap, as parallel shard rounds do)."""
    wall = sum(hi - lo for lo, hi in windows)
    top = {
        s
        for s in spans
        if s.parent is None
        and any(lo <= s.start and s.end <= hi for lo, hi in windows)
    }
    if not top:
        return {}
    selfs = self_times([s for s in spans if _root(s) in top])
    total = sum(s.duration for s in top)
    return {
        "trace.coverage_frac": total / wall,
        "trace.self_sum_gap_frac": abs(sum(selfs.values()) - total) / total,
    }


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


# ----------------------------------------------------------------------
# Gateway: probes, joins and the waterfall
# ----------------------------------------------------------------------
def median_call_us(fn, repeats: int, clock=time.perf_counter) -> float:
    samples = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        samples.append(clock() - t0)
    return statistics.median(samples) * 1e6


def gateway_probes(client, records) -> dict:
    """Round trips that isolate the wire (``ping``) and the executor hop
    (``stats``), and the server's JSON work replayed on the frames this
    run actually exchanged."""
    from repro.serve import JobReport, JobRequest

    jobs = [r.job for r in records if r.job]
    lines = [
        json.dumps(
            {
                "op": "submit",
                "tenant": r.op.tenant,
                "kernel": r.op.kernel,
                "ratio": r.op.ratio,
                "args": r.op.args,
            }
        ).encode()
        for r in records[:50]
    ]
    reports = [
        JobReport(
            **{
                key: value
                for key, value in job.items()
                if key not in ("result", "trace_id", "span_id")
            },
            output=job.get("result"),
        )
        for job in jobs[:50]
    ]

    def decode():
        for line in lines:
            message = json.loads(line)
            JobRequest.from_dict(
                {k: v for k, v in message.items() if k != "op"}
            )

    def encode():
        for report in reports:
            json.dumps({"ok": report.ok, "job": report.to_dict()})

    out = {
        "gateway.ping_rtt_us": median_call_us(client.ping, 200),
        "gateway.stats_rtt_us": median_call_us(client.stats, 50),
    }
    if jobs:
        out["gateway.decode_us"] = median_call_us(decode, 20) / len(lines)
        out["gateway.encode_us"] = median_call_us(encode, 20) / len(reports)
    return out


#: Children of the two service spans the waterfall itemises.
_PARTS = {
    "submit": (
        "serve.kernels.digest",
        "serve.kernels.plan",
        "serve.cache.lookup",
    ),
    "flush": (
        "serve.cache.lookup",
        "runtime.spawn_many",
        "runtime.taskwait",
        "serve.kernels.combine",
        "serve.kernels.reference",
        "serve.kernels.quality",
        "serve.cache.put",
    ),
}
_SELF_LABEL = {"submit": "admission self", "flush": "settle self"}


def wire_join(spans, records) -> tuple[dict, list]:
    """Join client round trips with the server-side spans of the same
    job.  Every slice is bounded by two recorded instants, so a job's
    slices add up to its round trip.

    Returns the gateway metrics and the waterfall rows
    ``(label, mean seconds, indent)`` over the executed jobs.
    """
    named = by_name(spans)
    children = children_of(spans)
    selfs = self_times(spans)
    decode_of = {s.info: s for s in named["gateway.decode"]}
    encode_of = {s.info: s for s in named["gateway.encode"]}
    submit_of = {s.info["job"]: s for s in named["serve.submit"]}
    rounds = [f for f in named["serve.flush"] if f.info]
    round_of = {job: f for f in rounds for job in f.info}

    out = {"gateway.error_frames": sum(1 for r in records if r.error)}
    if rounds:
        out["gateway.jobs_per_round"] = sum(
            len(f.info) for f in rounds
        ) / len(rounds)
    slices = collections.defaultdict(list)
    for record in records:
        job_id = record.job and record.job["job_id"]
        stages = [
            lookup.get(job_id)
            for lookup in (decode_of, submit_of, round_of, encode_of)
        ]
        if None in stages:
            continue
        decode, submit, flush, encode = stages
        rtt = record.received - record.sent
        slices["rtt"].append(rtt)
        slices["outside"].append(rtt - submit.duration - flush.duration)
        slices["wire in"].append(decode.start - record.sent)
        slices["decode"].append(decode.duration)
        slices["to service thread"].append(submit.start - decode.end)
        slices["wait"].append(flush.start - submit.end)
        slices["to event loop"].append(encode.start - flush.end)
        slices["encode"].append(encode.duration)
        slices["wire out"].append(record.received - encode.end)
        for kind, span in (("submit", submit), ("flush", flush)):
            slices[kind].append(span.duration)
            slices[_SELF_LABEL[kind]].append(selfs[span])
            for part in _PARTS[kind]:
                slices[f"{kind}/{part}"].append(
                    sum(
                        c.duration
                        for c in children[span]
                        if c.name == part
                    )
                )
    if not slices["rtt"]:
        return out, []
    out["gateway.wait_ms"] = statistics.median(slices["outside"]) * 1e3
    out["gateway.wire_us"] = (
        statistics.median(
            a + b for a, b in zip(slices["wire in"], slices["wire out"])
        )
        * 1e6
    )
    out["gateway.hop_us"] = (
        statistics.median(
            a + b
            for a, b in zip(
                slices["to service thread"], slices["to event loop"]
            )
        )
        * 1e6
    )

    mean = {key: statistics.fmean(vals) for key, vals in slices.items()}
    rows = []
    for label in (
        "wire in", "decode", "to service thread", "submit", "wait",
        "flush", "to event loop", "encode", "wire out",
    ):
        rows.append((label, mean[label], 0))
        for part in _PARTS.get(label, ()):
            rows.append((part, mean[f"{label}/{part}"], 1))
        if label in _SELF_LABEL:
            rows.append((_SELF_LABEL[label], mean[_SELF_LABEL[label]], 1))
    total = sum(seconds for _, seconds, indent in rows if indent == 0)
    rows.append(("sum of slices", total, 0))
    rows.append(("measured client RTT", mean["rtt"], 0))
    return out, rows


def render_waterfall(rows) -> str:
    rtt = rows[-1][1]
    lines = ["wire_closed: one traced job (mean over executed jobs)"]
    for label, seconds, indent in rows:
        lines.append(
            f"  {'  ' * indent}{label:<{34 - 2 * indent}}"
            f"{seconds * 1e6:>10.1f} us {seconds / rtt:>7.1%}"
        )
    return "\n".join(lines)
