"""Seeded inputs for the end-to-end benchmark.

Every op list is a pure function of ``(workload, seed, rep)``: the
program under test only ever sees requests generated here.  Counts are
constants (never auto-tuned) sized on the 2-core reference host so one
repetition measures about a second of work (``paper_cells``: the fixed
42-cell grid, about three seconds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = (
    "wire_closed",
    "serve_cold",
    "serve_hot",
    "cluster_cold",
    "runtime_dispatch",
    "paper_cells",
)

#: Ops in one timed repetition.
OPS_PER_REP = {
    "wire_closed": 160,
    "serve_cold": 384,
    "serve_hot": 3200,
    "cluster_cold": 256,
    "runtime_dispatch": 90,
    "paper_cells": 42,
}
#: Ops in the untimed warm-up that precedes every repetition
#: (``wire_closed``: once, after the server boots).
WARMUP_OPS = {
    "wire_closed": 16,
    "serve_cold": 64,
    "serve_hot": 64,
    "cluster_cold": 64,
    "runtime_dispatch": 3,
    "paper_cells": 6,
}
#: ``rep`` index of the warm-up op list (disjoint from every timed rep).
WARMUP_REP = -1

# -- serve / cluster / wire jobs --------------------------------------
TENANTS = ("acme", "zeta")
#: Floor of the ``standard`` tier both tenants are provisioned from.
TENANT_RATIO_FLOOR = 0.3
KERNELS = ("mc-pi", "sobel", "dct", "kmeans")
JOB_RATIO = 0.8
WAVE = 64
HOT_POOL = 16
#: Queue cap raised so a 64-job wave never sheds.
MAX_PENDING = 100_000
#: ``cluster_cold`` meters one tenant so leases draw and settle; the
#: budget is far above what a run spends, so nothing is ever shed.
CLUSTER_BUDGET_J = 1.0e6
CLUSTER_SHARDS = 2


def tenant_specs(workload: str) -> tuple[str, ...]:
    """Registry spec strings of the two tenants a workload provisions."""
    specs = []
    for name in TENANTS:
        spec = f"standard:name='{name}',max_pending={MAX_PENDING}"
        if workload == "cluster_cold" and name == TENANTS[1]:
            spec += f",budget_j={CLUSTER_BUDGET_J}"
        specs.append(spec)
    return tuple(specs)


@dataclass(frozen=True)
class JobOp:
    tenant: str
    kernel: str
    args: dict
    ratio: float = JOB_RATIO


def _arg_seed(seed: int, rep: int, index: int) -> int:
    """Distinct per (rep, index) within a run: reps never share args."""
    return (seed * 1_000_003 + (rep + 1) * 100_003 + index) % (2**31)


def _job_args(kernel: str, arg_seed: int) -> dict:
    if kernel == "sobel":
        return {"size": 32, "seed": arg_seed}
    return {"seed": arg_seed}  # mc-pi / dct / kmeans at shipped sizes


def job_ops(workload: str, seed: int, rep: int) -> list[JobOp]:
    """Round-robin kernel mix over two tenants at ratio 0.8.

    ``serve_hot`` draws args from a pool of :data:`HOT_POOL` per rep, so
    nearly every job is answered ``cached``; the other job workloads
    give every op its own args.  Its first wave holds each (kernel, pool
    slot) pair once: the executions that fill the cache then sit in one
    wave (2 % of the ops) instead of trickling through the next few at
    random, which put ``latency_p95_ms`` on a cliff.
    """
    n = WARMUP_OPS[workload] if rep == WARMUP_REP else OPS_PER_REP[workload]
    rng = random.Random(f"{workload}:{seed}:{rep}")
    distinct = HOT_POOL * len(KERNELS)
    ops = []
    for i in range(n):
        if workload != "serve_hot":
            slot = i
        elif i < distinct:
            slot = i // len(KERNELS)
        else:
            slot = rng.randrange(HOT_POOL)
        kernel = KERNELS[i % len(KERNELS)]
        ops.append(
            JobOp(
                tenant=TENANTS[i % len(TENANTS)],
                kernel=kernel,
                args=_job_args(kernel, _arg_seed(seed, rep, slot)),
            )
        )
    return ops


# -- runtime_dispatch groups -------------------------------------------
GROUP_TASKS = 1000
GROUP_RATIO = 0.5
POLICIES = ("accurate", "gtb:buffer_size=32", "lqh")
#: The end-to-end workload dispatches on the simulated engine only.  The
#: threaded engine's wall time follows the host's thread wake-up latency,
#: which on the reference VM flips between two regimes depending on what
#: ran before (-15 % ops/s, x2.7 p95): no 10 % bound can sit on that.
#: The traced pass cycles both engines (``TRACED_ENGINES``) and reports
#: ``engine.threaded.tasks_per_s`` without a bound.
ENGINES = ("simulated",)
TRACED_ENGINES = ("simulated", "threaded")


@dataclass(frozen=True)
class GroupOp:
    policy: str
    engine: str
    label: str
    #: Phase of the 0.1-0.9 significance cycle (the seeded input).
    phase: int

    def significance(self, i: int) -> float:
        return ((i + self.phase) % 9 + 1) / 10.0


def combos(engines=ENGINES) -> list[tuple[str, str]]:
    return [(policy, engine) for policy in POLICIES for engine in engines]


def group_ops(seed: int, rep: int, engines=ENGINES) -> list[GroupOp]:
    """Groups cycling policy x engine; the warm-up is one per pair."""
    pairs = combos(engines)
    n = len(pairs) if rep == WARMUP_REP else OPS_PER_REP["runtime_dispatch"]
    rng = random.Random(f"runtime_dispatch:{seed}:{rep}")
    tag = "w" if rep == WARMUP_REP else f"r{rep}"
    ops = []
    for i in range(n):
        policy, engine = pairs[i % len(pairs)]
        ops.append(
            GroupOp(policy, engine, f"{tag}g{i}", phase=rng.randrange(9))
        )
    return ops


# -- paper_cells --------------------------------------------------------
PAPER_KERNELS = ("sobel", "dct", "kmeans", "jacobi", "mc", "fluidanimate")
#: Run at ``small=True``: their full sizes take tens of seconds a cell.
PAPER_SMALL = frozenset({"mc", "fluidanimate"})
PAPER_POLICIES = ("gtb:buffer_size=32", "lqh")
DEGREES = ("MILD", "MEDIUM", "AGGRESSIVE")


@dataclass(frozen=True)
class CellOp:
    kernel: str
    policy: str
    #: Table-1 degree name, or ``None`` for the accurate cell.
    degree: str | None
    small: bool
    seed: int


def cell_ops(seed: int, rep: int) -> list[CellOp]:
    cell_seed = _arg_seed(seed, rep, 0)
    if rep == WARMUP_REP:
        # One accurate cell per kernel at the measured size: first use of
        # a size pays one-time costs that belong to set-up.
        return [
            CellOp(k, "accurate", None, k in PAPER_SMALL, cell_seed)
            for k in PAPER_KERNELS
        ]
    ops = []
    for kernel in PAPER_KERNELS:
        small = kernel in PAPER_SMALL
        for policy in PAPER_POLICIES:
            for degree in DEGREES:
                ops.append(CellOp(kernel, policy, degree, small, cell_seed))
        ops.append(CellOp(kernel, "accurate", None, small, cell_seed))
    return ops
