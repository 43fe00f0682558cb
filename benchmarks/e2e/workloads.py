"""The six workloads: set-up, one timed repetition, tear-down.

Everything here drives the program through its public surface and
measures with nothing wrapped; :mod:`trace` reuses the same drivers for
the separate traced pass.  All configs are the shipped defaults
(``gtb-max``, 16 simulated workers, ``compile="off"``, obs on,
``compute_quality=True``).
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import gc
import os
import re
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import loadgen
from repro.cluster import ClusterService
from repro.config import RuntimeConfig
from repro.experiment import ExperimentSpec, run_one
from repro.kernels.base import Degree, get_benchmark
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskCost
from repro.serve import (
    JobRequest,
    ServeClient,
    ServeClientError,
    ServeServer,
    TaskService,
)

ROOT = Path(__file__).resolve().parents[2]
N_WORKERS = 16
SERVER_BOOT_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 60.0
CONNECTIONS = 2

clock = time.perf_counter
#: ``run_rep(around=...)`` is entered around the timed region only; the
#: traced pass hands in its tracer, every other run this no-op.
UNTRACED = contextlib.nullcontext()


class BenchError(RuntimeError):
    """The program under test could not be set up or answered its
    warm-up wrongly: there is nothing meaningful to measure."""


@dataclass
class RepResult:
    """One timed repetition: per-op latencies and verdicts."""

    #: ``clock()`` reading at which the timed region began.
    started: float
    wall_s: float
    latencies_s: list[float]
    #: One reason per failed op (empty: every answer was correct).
    failures: list[str]
    #: Modelled Joules billed to the ops that ran on a simulated engine.
    energy_j: float
    energy_ops: int
    statuses: collections.Counter = field(
        default_factory=collections.Counter
    )
    #: Workload-specific per-op records the traced pass joins against.
    records: list = field(default_factory=list)


def _serve_config() -> RuntimeConfig:
    return RuntimeConfig(policy="gtb-max", n_workers=N_WORKERS)


def _requests(ops) -> list[JobRequest]:
    return [
        JobRequest(
            tenant=op.tenant, kernel=op.kernel, args=op.args, ratio=op.ratio
        )
        for op in ops
    ]


def _job_failures(ops, reports: list[dict | None]) -> list[str]:
    failures = []
    for op, report in zip(ops, reports):
        reason = (
            "never settled"
            if report is None
            else checks.check_job(report, op.ratio)
        )
        if reason:
            failures.append(f"{op.kernel}: {reason}")
    return failures


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class InProcessWorkload:
    """Defaults of the workloads that run inside the measuring child:
    nothing outlives a repetition, and the child's own RSS is reported."""

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return _own_peak_rss_mb()


# ----------------------------------------------------------------------
# serve_cold / serve_hot / cluster_cold
# ----------------------------------------------------------------------
def drive_waves(service, requests) -> tuple[float, float, list[float], list]:
    """Submit in waves of 64, flush until drained.  Latency runs from
    the ``submit`` call to the report turning terminal (the return of
    ``submit`` itself, or of the ``flush`` round that settled it)."""
    n = len(requests)
    latencies = [0.0] * n
    reports = [None] * n
    t0 = clock()
    for lo in range(0, n, loadgen.WAVE):
        queued = {}
        for i in range(lo, min(lo + loadgen.WAVE, n)):
            ts = clock()
            report = service.submit(requests[i])
            if report.status == "queued":
                queued[report.job_id] = (i, ts, report)
            else:
                latencies[i] = clock() - ts
                reports[i] = report
        while service.pending_jobs:
            done = service.flush()
            te = clock()
            for report in done:
                i, ts, _ = queued.pop(report.job_id)
                latencies[i] = te - ts
                reports[i] = report
    return t0, clock() - t0, latencies, reports


class ServeWorkload(InProcessWorkload):
    """``TaskService`` (or a 2-shard ``ClusterService``) driven
    in-process: a fresh service and one untimed 64-job wave per rep."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed

    def _service(self):
        tenants = loadgen.tenant_specs(self.name)
        if self.name == "cluster_cold":
            return ClusterService(
                _serve_config(),
                tenants=tenants,
                cluster=loadgen.CLUSTER_SHARDS,
            )
        return TaskService(_serve_config(), tenants=tenants)

    def _warm_service(self):
        service = self._service()
        ops = loadgen.job_ops(self.name, self.seed, loadgen.WARMUP_REP)
        *_, reports = drive_waves(service, _requests(ops))
        failures = _job_failures(
            ops, [r and r.to_dict() for r in reports]
        )
        if failures:
            service.close()
            raise BenchError(f"{self.name} warm-up: {failures[0]}")
        return service

    def setup(self) -> None:
        self._warm_service().close()

    def run_rep(self, rep: int, around=UNTRACED, loaded=None) -> RepResult:
        """``loaded(service)`` runs after the timed region, before the
        service closes (the traced pass scrapes the loaded service)."""
        service = self._warm_service()
        try:
            ops = loadgen.job_ops(self.name, self.seed, rep)
            requests = _requests(ops)
            gc.collect()
            with around:
                started, wall, latencies, reports = drive_waves(
                    service, requests
                )
            if loaded is not None:
                loaded(service)
        finally:
            service.close()
        dicts = [r and r.to_dict() for r in reports]
        return RepResult(
            started=started,
            wall_s=wall,
            latencies_s=latencies,
            failures=_job_failures(ops, dicts),
            energy_j=sum(d["energy_j"] for d in dicts if d),
            energy_ops=len(ops),
            statuses=collections.Counter(d["status"] for d in dicts if d),
        )


# ----------------------------------------------------------------------
# wire_closed
# ----------------------------------------------------------------------
class SubprocessGateway:
    """``python -m repro.harness serve`` on loopback, as users boot it."""

    def __init__(self, tenants) -> None:
        command = [
            sys.executable, "-m", "repro.harness", "serve",
            "--port", "0", "--workers", str(N_WORKERS),
        ]
        for spec in tenants:
            command += ["--tenant", spec]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self._peak_rss_mb = 0.0
        self._log: collections.deque = collections.deque(maxlen=50)
        self._ready = threading.Event()
        self.address: tuple[str, int] | None = None
        self._proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(SERVER_BOOT_TIMEOUT_S) or not self.address:
            self.close()
            raise BenchError(
                "serve gateway did not come up: " + " | ".join(self._log)
            )

    def _drain(self) -> None:
        for line in self._proc.stderr:
            self._log.append(line.rstrip())
            match = re.search(r"gateway on ([\d.]+):(\d+)", line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._ready.set()
        self._ready.set()  # EOF: the server died before announcing

    def peak_rss_mb(self) -> float:
        """The server's high-water RSS (kept after it is stopped)."""
        try:
            status = Path(f"/proc/{self._proc.pid}/status").read_text()
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                self._peak_rss_mb = int(match.group(1)) / 1024.0
        except OSError:
            pass
        return self._peak_rss_mb

    def close(self) -> None:
        if self._proc.poll() is None:
            self.peak_rss_mb()
            self._proc.terminate()
            try:
                self._proc.wait(10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._reader.join(5)
        self._proc.stderr.close()


class InProcessGateway:
    """A ``ServeServer`` on a loop thread of this process, so the traced
    pass can wrap the service it fronts."""

    def __init__(self, tenants) -> None:
        self.service = TaskService(_serve_config(), tenants=tenants)
        self._server = ServeServer(self.service)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True
        )
        self._thread.start()
        self.address = asyncio.run_coroutine_threadsafe(
            self._server.start(), self._loop
        ).result(SERVER_BOOT_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        return _own_peak_rss_mb()

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self._server.close(), self._loop
        ).result(30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)
        self._loop.close()
        self.service.close()


@dataclass
class WireRecord:
    """One client round trip (perf_counter stamps)."""

    op: loadgen.JobOp
    sent: float
    received: float
    job: dict | None
    error: str | None


def _client_loop(client: ServeClient, ops, out: list) -> None:
    for op in ops:
        job = error = None
        sent = clock()
        try:
            job = client.submit(op.tenant, op.kernel, op.args, op.ratio)
        except ServeClientError as exc:
            error = str(exc)
        out.append(WireRecord(op, sent, clock(), job, error))


class WireWorkload:
    """Two closed-loop ``ServeClient`` connections against one gateway
    booted once for all reps.  Closed loop: the protocol allows one job
    in flight per connection, and two waiting callers build no queue."""

    name = "wire_closed"

    def __init__(self, seed: int, in_process: bool = False) -> None:
        self.seed = seed
        self._in_process = in_process
        self.gateway = None
        self.clients: list[ServeClient] = []

    def setup(self) -> None:
        tenants = loadgen.tenant_specs(self.name)
        self.gateway = (
            InProcessGateway(tenants)
            if self._in_process
            else SubprocessGateway(tenants)
        )
        host, port = self.gateway.address
        for _ in range(CONNECTIONS):
            self.clients.append(
                ServeClient(host, port, timeout_s=CLIENT_TIMEOUT_S)
            )
        if not all(client.ping() for client in self.clients):
            raise BenchError("gateway did not answer ping")
        warm = self.run_rep(loadgen.WARMUP_REP)
        if warm.failures:
            raise BenchError(f"wire_closed warm-up: {warm.failures[0]}")

    def run_rep(self, rep: int, around=UNTRACED) -> RepResult:
        ops = loadgen.job_ops(self.name, self.seed, rep)
        shares = [ops[c::CONNECTIONS] for c in range(CONNECTIONS)]
        outs: list[list[WireRecord]] = [[] for _ in shares]
        threads = [
            threading.Thread(target=_client_loop, args=(client, share, out))
            for client, share, out in zip(self.clients, shares, outs)
        ]
        gc.collect()
        with around:
            t0 = clock()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = clock() - t0
        failures, records = [], []
        for share, out in zip(shares, outs):
            records += out
            for op, record in zip(share, out):
                reason = record.error or checks.check_job(
                    record.job, op.ratio
                )
                if reason:
                    failures.append(f"{op.kernel}: {reason}")
            failures += ["never sent"] * (len(share) - len(out))
        jobs = [r.job for r in records if r.job]
        return RepResult(
            started=t0,
            wall_s=wall,
            latencies_s=[r.received - r.sent for r in records],
            failures=failures,
            energy_j=sum(job["energy_j"] for job in jobs),
            energy_ops=len(ops),
            statuses=collections.Counter(job["status"] for job in jobs),
            records=records,
        )

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.gateway is not None:
            self.gateway.close()

    def peak_rss_mb(self) -> float:
        return self.gateway.peak_rss_mb()


# ----------------------------------------------------------------------
# runtime_dispatch
# ----------------------------------------------------------------------
#: Analytic cost of the no-op body, so simulated energy is modelled
#: (and repeats exactly) instead of following measured wall time.
GROUP_COST = TaskCost(2000.0, 400.0)
_GROUP_ARGS = [(i,) for i in range(loadgen.GROUP_TASKS)]


def _noop(i):
    return None


def dispatch_group(sched: Scheduler, op: loadgen.GroupOp) -> None:
    sched.init_group(op.label, loadgen.GROUP_RATIO)
    sched.spawn_many(
        _noop,
        _GROUP_ARGS,
        significance=op.significance,
        approxfun=_noop,
        label=op.label,
        cost=GROUP_COST,
    )
    sched.taskwait(op.label)


class DispatchWorkload(InProcessWorkload):
    """The paper runtime alone: 1000-task groups through
    ``spawn_many`` + ``taskwait``, kernel time about zero."""

    name = "runtime_dispatch"

    def __init__(self, seed: int, engines=loadgen.ENGINES) -> None:
        self.seed = seed
        self.engines = engines

    def _ops(self, rep: int) -> list[loadgen.GroupOp]:
        return loadgen.group_ops(self.seed, rep, self.engines)

    def _warm_schedulers(self) -> dict:
        scheds = {
            (policy, engine): Scheduler(
                policy=policy, engine=engine, n_workers=N_WORKERS
            )
            for policy, engine in loadgen.combos(self.engines)
        }
        for op in self._ops(loadgen.WARMUP_REP):
            dispatch_group(scheds[op.policy, op.engine], op)
        return scheds

    def _finish(self, scheds: dict, ops):
        """Check every group of ``ops`` and close every scheduler.

        Returns (failures, simulated Joules, simulated ops, records);
        a record is ``(op, achieved ratio, inversion % or None)``.
        """
        failures, records = [], []
        for op in ops:
            group = scheds[op.policy, op.engine].groups.get(
                op.label, create=False
            )
            accurate = group.accurate_count
            reason = checks.check_group(
                op.policy, accurate, group.approx_count, group.dropped_count
            )
            if reason:
                failures.append(f"{op.policy}/{op.engine}: {reason}")
            records.append(
                (
                    op,
                    accurate / loadgen.GROUP_TASKS,
                    group.inversion_pct()
                    if op.policy.startswith("lqh")
                    else None,
                )
            )
        energy_j, energy_ops = 0.0, 0
        for (policy, engine), sched in scheds.items():
            groups = sum(1 for group in sched.groups if group.spawned)
            report = sched.finish()
            if engine == "simulated":
                mine = sum(
                    1
                    for op in ops
                    if (op.policy, op.engine) == (policy, engine)
                )
                # Every group costs the same; the warm-up group's share
                # of the scheduler's energy is not an op of this rep.
                energy_j += report.energy_j * mine / groups
                energy_ops += mine
        return failures, energy_j, energy_ops, records

    def setup(self) -> None:
        warm_ops = self._ops(loadgen.WARMUP_REP)
        failures, *_ = self._finish(self._warm_schedulers(), warm_ops)
        if failures:
            raise BenchError(f"runtime_dispatch warm-up: {failures[0]}")

    def run_rep(self, rep: int, around=UNTRACED) -> RepResult:
        scheds = self._warm_schedulers()
        ops = self._ops(rep)
        latencies = []
        gc.collect()
        with around:
            t0 = clock()
            for op in ops:
                ts = clock()
                dispatch_group(scheds[op.policy, op.engine], op)
                latencies.append(clock() - ts)
            wall = clock() - t0
            # Untimed, but inside ``around``: the traced pass reads
            # runtime.finish_ms off these calls.
            failures, energy_j, energy_ops, records = self._finish(
                scheds, ops
            )
        return RepResult(
            started=t0,
            wall_s=wall,
            latencies_s=latencies,
            failures=failures,
            energy_j=energy_j,
            energy_ops=energy_ops,
            records=records,
        )


# ----------------------------------------------------------------------
# paper_cells
# ----------------------------------------------------------------------
def _cell_spec(op: loadgen.CellOp) -> ExperimentSpec:
    param = None
    if op.degree is not None:
        bench = get_benchmark(op.kernel, small=op.small)
        param = bench.degree_param(Degree[op.degree])
    return ExperimentSpec(
        workload=op.kernel,
        param=param,
        config=RuntimeConfig(policy=op.policy, n_workers=N_WORKERS),
        seed=op.seed,
        small=op.small,
    )


def _cell_failures(ops, rows) -> list[str]:
    verdicts = [
        checks.check_cell(row, op.kernel, op.degree)
        for op, row in zip(ops, rows)
    ]
    sweeps: dict[tuple, list[int]] = {}
    for i, op in enumerate(ops):
        if op.degree is not None:
            sweeps.setdefault((op.kernel, op.policy), []).append(i)
    for indices in sweeps.values():
        indices.sort(key=lambda i: loadgen.DEGREES.index(ops[i].degree))
        monotone = checks.check_monotone([rows[i] for i in indices])
        for i, verdict in zip(indices, monotone):
            verdicts[i] = verdicts[i] or verdict
    return [
        f"{op.kernel}/{op.policy}/{op.degree}: {v}"
        for op, v in zip(ops, verdicts)
        if v
    ]


class PaperCellsWorkload(InProcessWorkload):
    """The paper's evaluation grid, one ``run_one`` cell per op."""

    name = "paper_cells"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        warm = self.run_rep(loadgen.WARMUP_REP)
        if warm.failures:
            raise BenchError(f"paper_cells warm-up: {warm.failures[0]}")

    def run_rep(self, rep: int, around=UNTRACED) -> RepResult:
        ops = loadgen.cell_ops(self.seed, rep)
        specs = [_cell_spec(op) for op in ops]
        latencies, rows = [], []
        gc.collect()
        with around:
            t0 = clock()
            for spec in specs:
                ts = clock()
                result = run_one(spec)
                latencies.append(clock() - ts)
                rows.append(result.to_row())
            wall = clock() - t0
        return RepResult(
            started=t0,
            wall_s=wall,
            latencies_s=latencies,
            failures=_cell_failures(ops, rows),
            energy_j=sum(row["energy_j"] for row in rows),
            energy_ops=len(ops),
            records=list(zip(ops, latencies)),
        )


def make(name: str, seed: int, traced: bool = False):
    """``traced``: the variant the per-layer pass needs - the gateway in
    this process (so its service can be wrapped), and dispatch on the
    threaded engine as well."""
    if name == "wire_closed":
        return WireWorkload(seed, in_process=traced)
    if name == "runtime_dispatch":
        return DispatchWorkload(
            seed, loadgen.TRACED_ENGINES if traced else loadgen.ENGINES
        )
    if name == "paper_cells":
        return PaperCellsWorkload(seed)
    if name in ("serve_cold", "serve_hot", "cluster_cold"):
        return ServeWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}")
