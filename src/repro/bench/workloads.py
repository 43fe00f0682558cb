"""The runtime microbenchmarks behind ``python -m repro.harness bench``.

The paper's policies "differ in terms of their runtime overhead"; these
probes measure that cost inside the runtime itself, with no serving,
cluster or kernel layer in the way (those are measured end to end by
``benchmarks/e2e`` and asserted by the test suite):

* **scheduler_throughput** — tasks dispatched end-to-end per second
  through the full runtime (spawn → policy → queues → simulated
  execution → dependence retirement), per policy.
* **spawn_overhead** — master-side cost of ``Scheduler.spawn`` alone
  (task descriptor + dependence registration + enqueue event), the
  analogue of the paper's task-creation overhead.
* **spawn_many** — the batched spawn fast path versus the spawn loop:
  master-side cost per task through ``Scheduler.spawn_many`` and the
  ``speedup_vs_loop`` ratio of the two on the same stream.
* **governor_convergence** — control quality (not speed) of the online
  :class:`~repro.tuning.governor.EnergyBudgetGovernor`: budget-tracking
  error and steps-to-converge on a deterministic simulated Sobel run
  with the budget at 70% of full-precision energy.  Fully virtual-time
  and analytic-cost, so the gated metrics are bit-stable across hosts.
* **payload_bandwidth** — the zero-copy data plane: a Sobel-shaped
  stream (row blocks of one large float64 image) on the process
  backend with ``shm=true`` versus the pickle plane.  Gates the
  deterministic bytes-not-copied fraction and a pass/fail bool for the
  ≥1.5× tasks/s bar of shm over pickling the same payloads.

Timed probes report an absolute metric (host wall time — informational)
and a twin normalized against the calibration loop (work per abstract
calibration op — ``gated`` and compared across hosts by CI).  A raw
ratio whose host spread exceeds the tolerance band stays informational
and is gated only through a pass/fail bool at its acceptance bar.
"""

from __future__ import annotations

from typing import Callable

from ..runtime.scheduler import Scheduler
from ..runtime.task import TaskCost
from .report import Metric
from .timers import BenchSample, TimerFn, default_timer, sample

__all__ = [
    "WORKLOADS",
    "calibrate",
    "bench_scheduler_throughput",
    "bench_spawn_overhead",
    "bench_spawn_many",
    "bench_governor_convergence",
    "bench_payload_bandwidth",
]

#: Simulated worker cores used by the runtime microbenchmarks (the
#: paper's testbed width).
N_WORKERS = 16

#: Iterations of the calibration kernel (integer ops; fixed so the
#: normalized metrics of two runs are directly comparable).
CALIBRATION_OPS = 200_000

#: Policies the throughput probe exercises, keyed by metric label.
THROUGHPUT_POLICIES: dict[str, str] = {
    "accurate": "accurate",
    "gtb": "gtb:buffer_size=32",
    "lqh": "lqh",
}


def _noop() -> None:
    return None


def _noop_arg(i: int) -> None:
    return None


def _calibration_kernel(n: int) -> int:
    """Fixed pure-Python integer loop: the cross-host yardstick."""
    x = 0
    for i in range(n):
        x += i & 7
    return x


def calibrate(timer: TimerFn = default_timer, repeats: int = 3) -> float:
    """Calibration-loop throughput (ops/s) on this host, best of N."""
    s = sample(
        lambda: _calibration_kernel(CALIBRATION_OPS),
        repeats=repeats,
        timer=timer,
    )
    return CALIBRATION_OPS / max(s.best_s, 1e-12)


def _dispatch_n_tasks(policy: str, n_tasks: int, ratio: float) -> Scheduler:
    """Spawn + fully execute ``n_tasks`` trivial tasks under ``policy``."""
    sched = Scheduler(policy=policy, n_workers=N_WORKERS)
    sched.init_group("bench", ratio)
    cost = TaskCost(2000.0, 400.0)
    spawn = sched.spawn
    for i in range(n_tasks):
        spawn(
            _noop,
            significance=(i % 101) / 100.0,
            approxfun=_noop,
            label="bench",
            cost=cost,
        )
    sched.finish()
    return sched


def bench_scheduler_throughput(
    small: bool,
    repeats: int,
    timer: TimerFn,
    calib_ops_per_s: float,
) -> dict[str, Metric]:
    n_tasks = 600 if small else 4000
    metrics: dict[str, Metric] = {}
    for label, spec in THROUGHPUT_POLICIES.items():
        s = sample(
            lambda spec=spec: _dispatch_n_tasks(spec, n_tasks, ratio=0.7),
            repeats=repeats,
            timer=timer,
        )
        tasks_per_s = n_tasks / max(s.best_s, 1e-12)
        metrics[f"scheduler_throughput.{label}.tasks_per_s"] = Metric(
            tasks_per_s, "tasks/s", higher_is_better=True
        )
        # Tasks dispatched per million calibration ops: host-portable.
        metrics[f"scheduler_throughput.{label}.tasks_per_mop"] = Metric(
            tasks_per_s / max(calib_ops_per_s, 1e-12) * 1e6,
            "tasks/Mop",
            higher_is_better=True,
            gated=True,
        )
    return metrics


def bench_spawn_overhead(
    small: bool,
    repeats: int,
    timer: TimerFn,
    calib_ops_per_s: float,
) -> dict[str, Metric]:
    n_tasks = 400 if small else 3000
    cost = TaskCost(2000.0)
    box: dict[str, Scheduler] = {}

    def setup() -> None:
        box["sched"] = Scheduler(policy="accurate", n_workers=N_WORKERS)

    def spawn_loop() -> None:
        spawn = box["sched"].spawn
        for i in range(n_tasks):
            spawn(_noop, significance=(i % 101) / 100.0, cost=cost)

    s: BenchSample = sample(
        spawn_loop, repeats=repeats, timer=timer, setup=setup
    )
    us_per_task = s.best_s / n_tasks * 1e6
    return {
        "spawn_overhead.us_per_task": Metric(
            us_per_task, "us/task", higher_is_better=False
        ),
        # Calibration kops of master work per spawned task.
        "spawn_overhead.kop_per_task": Metric(
            (s.best_s / n_tasks) * calib_ops_per_s / 1e3,
            "kop/task",
            higher_is_better=False,
            gated=True,
        ),
    }


def bench_spawn_many(
    small: bool,
    repeats: int,
    timer: TimerFn,
    calib_ops_per_s: float,
) -> dict[str, Metric]:
    """Batched spawn versus the equivalent spawn loop (same stream)."""
    # The small size stays large enough that the timed region (~ms)
    # dwarfs timer granularity: the headline metric is a ratio of two
    # such regions and noise on either side skews it.
    n_tasks = 800 if small else 3000
    cost = TaskCost(2000.0)
    box: dict[str, Scheduler] = {}

    def setup() -> None:
        box["sched"] = Scheduler(policy="accurate", n_workers=N_WORKERS)

    def spawn_loop() -> None:
        spawn = box["sched"].spawn
        for i in range(n_tasks):
            spawn(_noop_arg, i, significance=(i % 101) / 100.0, cost=cost)

    def spawn_batch() -> None:
        box["sched"].spawn_many(
            _noop_arg,
            [(i,) for i in range(n_tasks)],
            significance=lambda i: (i % 101) / 100.0,
            cost=cost,
        )

    loop = sample(spawn_loop, repeats=repeats, timer=timer, setup=setup)
    batch = sample(spawn_batch, repeats=repeats, timer=timer, setup=setup)
    us_per_task = batch.best_s / n_tasks * 1e6
    return {
        "spawn_many.us_per_task": Metric(
            us_per_task, "us/task", higher_is_better=False
        ),
        "spawn_many.kop_per_task": Metric(
            (batch.best_s / n_tasks) * calib_ops_per_s / 1e3,
            "kop/task",
            higher_is_better=False,
            gated=True,
        ),
        # Loop-vs-batch on the same host and stream: a pure ratio, so
        # host-portable and gated.
        "spawn_many.speedup_vs_loop": Metric(
            loop.best_s / max(batch.best_s, 1e-12),
            "x",
            higher_is_better=True,
            gated=True,
        ),
    }


#: Budget fraction of full-precision energy the convergence probe sets.
GOVERNOR_BUDGET_FRAC = 0.7

#: Ticks per run the convergence probe aims for (interval = span / N).
GOVERNOR_TICKS = 40

#: steps_to_converge sentinel for a run that never converged: finite
#: (strict-JSON safe) but orders of magnitude above any real tick
#: count, so the gated lower-is-better comparison always regresses.
UNCONVERGED_STEPS = 999.0


def bench_governor_convergence(
    small: bool,
    repeats: int,
    timer: TimerFn,
    calib_ops_per_s: float,
) -> dict[str, Metric]:
    """Budget-tracking quality of the online governor (gated).

    Unlike the other probes this measures *control* quality, not host
    speed: one deterministic simulated Sobel run per report, budget at
    70% of the measured full-precision energy, LQH supplying the
    per-task decision point the controller steers.  Virtual time plus
    analytic costs make both gated metrics reproducible to the bit on
    any host, so a tolerance-band comparison catches genuine controller
    regressions rather than machine noise.
    """
    from ..kernels.base import get_benchmark

    bench = get_benchmark("sobel", small=True)
    bench.height = bench.width = 128 if small else 256
    inputs = bench.build_input(2015)

    accurate = Scheduler(policy="accurate", n_workers=N_WORKERS)
    bench.run_tasks(accurate, inputs, 1.0)
    full = accurate.finish()

    budget_j = GOVERNOR_BUDGET_FRAC * full.energy_j
    interval = full.makespan_s / GOVERNOR_TICKS
    governed = Scheduler(
        policy="lqh",
        n_workers=N_WORKERS,
        governor=f"governor:budget_j={budget_j},interval={interval}",
    )
    bench.run_tasks(governed, inputs, 1.0)
    report = governed.finish()
    governor = governed.governor

    error_pct = 100.0 * abs(report.energy_j - budget_j) / budget_j
    steps = governor.steps_to_converge
    return {
        # The acceptance bar itself is the gate (1.0 = final energy
        # within 10% of budget): the raw error is a small number whose
        # ratio to a small baseline would turn controller noise floors
        # into spurious "regressions", so it stays informational.
        "governor_convergence.budget_within_10pct": Metric(
            1.0 if error_pct <= 10.0 else 0.0,
            "bool",
            higher_is_better=True,
            gated=True,
        ),
        "governor_convergence.budget_error_pct": Metric(
            error_pct, "%", higher_is_better=False
        ),
        "governor_convergence.steps_to_converge": Metric(
            # An unconverged run reports a finite sentinel far above any
            # real tick count, so it gates as "worse than any baseline"
            # while the report stays strict-JSON (inf would serialize
            # as the non-standard `Infinity` token).
            float(steps) if steps is not None else UNCONVERGED_STEPS,
            "ticks",
            higher_is_better=False,
            gated=True,
        ),
        "governor_convergence.final_ratio": Metric(
            governor.ratio, "ratio", higher_is_better=True
        ),
        "governor_convergence.ticks": Metric(
            float(governor.ticks), "ticks", higher_is_better=False
        ),
    }


#: Row blocks the payload-bandwidth probe splits its image into (the
#: Sobel task shape: disjoint row bands of one shared frame).
PAYLOAD_BLOCKS = 16

#: Worker width of the payload probe: small enough that a process pool
#: spins up quickly in CI smoke runs.
PAYLOAD_WORKERS = 4

#: Acceptance bar of the zero-copy data plane: ≥1.5× tasks/s over
#: pickling the same payloads.
PAYLOAD_SPEEDUP_MIN = 1.5


def _payload_block_touch(block) -> float:
    # Touch one row of a big block: the probe times payload transport,
    # not kernel arithmetic.
    return float(block[0].sum())


def _payload_stream(engine: str, image, n_blocks: int) -> Scheduler:
    """Dispatch one Sobel-shaped stream: each task reads one row band."""
    sched = Scheduler(
        policy="accurate", n_workers=PAYLOAD_WORKERS, engine=engine
    )
    rows = image.shape[0] // n_blocks
    sched.spawn_many(
        _payload_block_touch,
        [(image[i * rows : (i + 1) * rows],) for i in range(n_blocks)],
        cost=TaskCost(2000.0),
    )
    sched.finish()
    return sched


def bench_payload_bandwidth(
    small: bool,
    repeats: int,
    timer: TimerFn,
    calib_ops_per_s: float,
) -> dict[str, Metric]:
    """Zero-copy data plane vs pickling the same payloads (gated).

    The stream is payload-bound by construction (256 KiB-1 MiB per
    task, trivial arithmetic), so the pickle plane pays serialization
    plus pipe transfer per task while the shm plane ships a fixed-size
    :class:`~repro.runtime.memory.ArrayRef`.  The bytes-not-copied
    fraction comes from the exporter's own byte ledger on a dedicated
    untimed run — pool-backed row bands are referenced, never copied,
    so the gate is deterministic on any host.  The raw speedup spreads
    far wider across runs than the tolerance band, so it stays
    informational and the gate is the pass/fail bool at its 1.5× bar.
    """
    import numpy as np

    from ..runtime.memory import shared_array_pool

    shape = (512, 1024) if small else (1024, 2048)  # 4 / 16 MiB
    pool = shared_array_pool()
    shm_img = pool.ndarray(shape)
    shm_img[...] = 1.0
    pickle_img = np.ones(shape)
    try:
        # Warm both engines' process pools out of the timed region.
        _payload_stream("process:shm=true", shm_img, PAYLOAD_BLOCKS)
        _payload_stream("process", pickle_img, PAYLOAD_BLOCKS)
        shm = sample(
            lambda: _payload_stream(
                "process:shm=true", shm_img, PAYLOAD_BLOCKS
            ),
            repeats=repeats,
            timer=timer,
        )
        pickled = sample(
            lambda: _payload_stream("process", pickle_img, PAYLOAD_BLOCKS),
            repeats=repeats,
            timer=timer,
        )
        stats = _payload_stream(
            "process:shm=true", shm_img, PAYLOAD_BLOCKS
        ).engine.data_plane_stats
    finally:
        pool.release_array(shm_img)
    speedup = pickled.best_s / max(shm.best_s, 1e-12)
    return {
        # Deterministic byte ledger: gated directly (≥0.9 acceptance).
        "payload_bandwidth.bytes_not_copied_frac": Metric(
            stats.bytes_not_copied_frac,
            "frac",
            higher_is_better=True,
            gated=True,
        ),
        "payload_bandwidth.bytes_referenced_mb": Metric(
            stats.bytes_referenced / 2**20,
            "MiB",
            higher_is_better=True,
        ),
        "payload_bandwidth.shm_tasks_per_s": Metric(
            PAYLOAD_BLOCKS / max(shm.best_s, 1e-12),
            "tasks/s",
            higher_is_better=True,
        ),
        "payload_bandwidth.pickle_tasks_per_s": Metric(
            PAYLOAD_BLOCKS / max(pickled.best_s, 1e-12),
            "tasks/s",
            higher_is_better=True,
        ),
        "payload_bandwidth.shm_speedup": Metric(
            speedup, "x", higher_is_better=True
        ),
        "payload_bandwidth.shm_speedup_ge_1_5x": Metric(
            1.0 if speedup >= PAYLOAD_SPEEDUP_MIN else 0.0,
            "bool",
            higher_is_better=True,
            gated=True,
        ),
    }


#: Signature every bench workload satisfies:
#: ``fn(small, repeats, timer, calib_ops_per_s) -> {name: Metric}``.
WorkloadFn = Callable[[bool, int, TimerFn, float], dict[str, Metric]]

#: Registry of bench workloads, in report order.
WORKLOADS: dict[str, WorkloadFn] = {
    "scheduler_throughput": bench_scheduler_throughput,
    "spawn_overhead": bench_spawn_overhead,
    "spawn_many": bench_spawn_many,
    "governor_convergence": bench_governor_convergence,
    "payload_bandwidth": bench_payload_bandwidth,
}
