"""CLI entry point: ``python -m repro.harness <experiment>``.

Besides the paper's tables and figures, ``sweep`` runs declarative
experiment grids through :func:`repro.run`::

    python -m repro.harness sweep --workload sobel --small \\
        --policy gtb:buffer_size=16 --policy lqh --param 0.3 --param 0.8 \\
        --parallel 4 --json results.json

``bench`` runs the :mod:`repro.bench` performance probes, writing
the ``BENCH_runtime.json`` trajectory artifact and (optionally) gating
on a committed baseline::

    python -m repro.harness bench --json BENCH_runtime.json \\
        --baseline benchmarks/baselines/bench_baseline.json

and ``serve`` boots the :mod:`repro.serve` JSON-lines TCP gateway (or,
with ``--smoke N``, drives ``N`` mixed-tenant jobs through it across
two execution backends and exits nonzero on any transport failure).
With ``--shards N`` the gateway fronts a sharded
:class:`~repro.cluster.service.ClusterService` instead of a single
service::

    python -m repro.harness serve --port 7915 \\
        --tenant "premium:name='alice'" --tenant "free:name='bob'"
    python -m repro.harness serve --smoke 200 --shards 4

``top`` renders a refreshing live view of a running gateway (tenant
Joules vs budget, governor actuation, cache bands, ledger leases,
stream lanes, data-plane bytes) over its ``stats``/``metrics`` verbs::

    python -m repro.harness top --port 7915 --interval 2
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from ..config import RuntimeConfig
from ..experiment import ExperimentSpec, run
from ..kernels.base import benchmark_names
from .figures import (
    fig1_sobel_approximation,
    fig2_benchmark,
    fig3_sobel_perforation,
    fig4_overhead,
    fig_energy_budget,
)
from .tables import table1, table2_policy_accuracy

#: Tenant roster the serve smoke mode provisions: one unmetered
#: standard tenant plus one tightly budgeted free tenant, so the smoke
#: traffic exercises execution, caching *and* shedding paths.
SMOKE_TENANTS = (
    "standard:name='acme'",
    "free:name='hobby',budget_j=0.004,max_pending=1024",
)

#: Backends the smoke pushes jobs across (the ISSUE's "two backends").
SMOKE_ENGINES = ("simulated", "threaded")


#: Default locations for the bench artifact and its baselines.  Gating
#: baselines are per workload size: comparing a small run against
#: full-size numbers would produce bogus verdicts (the throughput and
#: per-task metrics differ by well over the tolerance across sizes).
BENCH_OUTPUT = "BENCH_runtime.json"
BENCH_BASELINE = "benchmarks/baselines/bench_baseline.json"
BENCH_BASELINE_SMALL = "benchmarks/baselines/bench_baseline_small.json"


def _baseline_size_mismatch(path: Path, small: bool) -> bool:
    """Whether a baseline report was recorded at the other size."""
    import json

    try:
        config = json.loads(path.read_text()).get("config", {})
    except (OSError, json.JSONDecodeError):
        return False  # unreadable files fail later, with a better error
    recorded = config.get("small")
    return recorded is not None and bool(recorded) is not small


def _run_bench(args) -> int:
    """The ``bench`` subcommand: measure, write JSON, gate on baselines."""
    from ..bench import BenchConfig, format_metrics_table, run_bench
    from ..runtime.errors import ConfigError

    small = args.small or bool(
        int(os.environ.get("REPRO_BENCH_SMALL", "0") or "0")
    )
    default_gate = BENCH_BASELINE_SMALL if small else BENCH_BASELINE
    baselines: dict[str, Path] = {}
    baseline = args.baseline or (
        default_gate if Path(default_gate).exists() else None
    )
    if baseline and not args.no_baseline:
        gate_path = Path(baseline)
        if _baseline_size_mismatch(gate_path, small):
            raise ConfigError(
                f"gating baseline {gate_path} was recorded at the other "
                f"workload size (current run: small={small}); pass a "
                "size-matched baseline or --no-baseline"
            )
        baselines["baseline"] = gate_path

    config = BenchConfig(
        small=small,
        repeats=args.repeats if args.repeats is not None else 5,
        workloads=tuple(args.bench_workload or ()),
        baselines=baselines,
        tolerance=args.tolerance,
    )
    report = run_bench(config)
    out = report.write(args.json or BENCH_OUTPUT)

    print(format_metrics_table(report.metrics))
    for comparison in report.comparisons.values():
        print()
        print(comparison.summary())
    print(f"\nbench report written to {out}", file=sys.stderr)

    if args.update_baseline:
        # Gating baselines carry measurements of *this* tree; refresh on
        # demand (e.g. after a deliberate perf change), never silently.
        # The default target matches the run's size, so a small run can
        # never clobber the full-size baseline by accident.
        target = Path(args.baseline or default_gate)
        target.parent.mkdir(parents=True, exist_ok=True)
        report.write(target)
        print(f"baseline updated: {target}", file=sys.stderr)

    gate = report.comparisons.get("baseline")
    if gate is not None and not gate.ok:
        names = ", ".join(m.name for m in gate.regressions)
        print(f"PERF REGRESSION (> {gate.tolerance:.0%}): {names}",
              file=sys.stderr)
        return 1
    return 0


def _boot_gateway(server):
    """Run a ServeServer's event loop on a daemon thread; return
    ``(host, port, shutdown)``."""
    import asyncio
    import threading

    loop = asyncio.new_event_loop()

    def pump() -> None:
        asyncio.set_event_loop(loop)
        loop.run_forever()

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    host, port = asyncio.run_coroutine_threadsafe(
        server.start(), loop
    ).result(30)

    def shutdown() -> None:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)

    return host, port, shutdown


def _make_service(engine: str, workers: int, tenants: tuple, shards: int):
    """One serving backend: a single TaskService, or a sharded
    ClusterService when ``shards > 1`` (same duck-typed contract)."""
    from ..config import RuntimeConfig
    from ..serve import TaskService

    config = RuntimeConfig(
        policy="gtb-max",
        n_workers=workers,
        engine=engine,
        tenants=tenants,
    )
    if shards > 1:
        from ..cluster import ClusterService

        return ClusterService(config.replace(cluster=shards))
    return TaskService(config)


def _serve_smoke(n_jobs: int, workers: int, shards: int = 1) -> int:
    """Push ``n_jobs`` mixed-tenant jobs through live TCP gateways on
    each smoke backend; nonzero on any transport/protocol failure."""
    from ..serve import ServeClient, ServeServer

    per_engine = max(1, n_jobs // len(SMOKE_ENGINES))
    failures = 0
    for engine in SMOKE_ENGINES:
        service = _make_service(engine, workers, SMOKE_TENANTS, shards)
        server = ServeServer(service)
        host, port, shutdown = _boot_gateway(server)
        outcomes: dict[str, int] = {}
        try:
            with ServeClient(host, port, timeout_s=120.0) as client:
                assert client.ping()
                for i in range(per_engine):
                    tenant = "acme" if i % 2 == 0 else "hobby"
                    if i % 3 == 0:
                        kernel, kargs = "mc-pi", {
                            "blocks": 8,
                            "samples": 200,
                            "seed": i % 7,
                        }
                    else:
                        kernel, kargs = "sobel", {
                            "size": 32,
                            "seed": i % 5,
                        }
                    job = client.submit(
                        tenant, kernel, kargs, ratio=0.9
                    )
                    status = job["status"]
                    outcomes[status] = outcomes.get(status, 0) + 1
                    if job["code"] not in (200, 429):
                        failures += 1
                stats = client.stats()
                try:
                    metrics = client.metrics()
                    prom = client.metrics(format="prometheus")
                except Exception:
                    metrics, prom = None, ""  # REPRO_OBS=0
        finally:
            shutdown()
            service.close()
        if metrics is not None:
            failures += _check_scrape(engine, stats, metrics, prom, shards)
        served = sum(
            n for s, n in outcomes.items() if not s.startswith("rejected")
        )
        print(
            f"[serve-smoke] {engine}: {per_engine} jobs -> {outcomes}; "
            f"cache {stats['cache']['hits']}+"
            f"{stats['cache']['degraded_hits']} hits, "
            f"{stats['rounds']} rounds",
        )
        if served == 0:
            failures += 1
    if failures:
        print(f"serve smoke FAILED ({failures} bad jobs)", file=sys.stderr)
        return 1
    print("serve smoke OK", file=sys.stderr)
    return 0


def _check_scrape(
    engine: str, stats: dict, metrics: dict, prom: str, shards: int
) -> int:
    """Reconcile one live ``metrics`` scrape against the ``stats``
    digest: per-tenant energy parity within 2%, cache series present,
    ledger lease occupancy visible on sharded clusters."""
    bad = 0
    energy = {
        s["labels"]["tenant"]: s["value"]
        for s in metrics.get(
            "repro_tenant_energy_joules_total", {"series": []}
        )["series"]
    }
    for name, tenant in stats["tenants"].items():
        spent = tenant["spent_j"]
        scraped = energy.get(name, 0.0)
        if spent > 0 and abs(scraped - spent) > 0.02 * spent:
            print(
                f"[serve-smoke] {engine}: tenant {name!r} energy "
                f"scrape {scraped} J vs stats {spent} J (>2% apart)",
                file=sys.stderr,
            )
            bad += 1
    if "repro_cache_lookups_total" not in metrics:
        print(
            f"[serve-smoke] {engine}: no cache series in scrape",
            file=sys.stderr,
        )
        bad += 1
    if shards > 1 and "repro_ledger_lease_remaining_joules" not in metrics:
        print(
            f"[serve-smoke] {engine}: no ledger lease series in scrape",
            file=sys.stderr,
        )
        bad += 1
    if "# TYPE repro_jobs_total counter" not in prom:
        print(
            f"[serve-smoke] {engine}: malformed prometheus exposition",
            file=sys.stderr,
        )
        bad += 1
    if not bad:
        print(
            f"[serve-smoke] {engine}: metrics scrape reconciles "
            f"({len(energy)} tenant energy series)"
        )
    return bad


def _run_serve(args) -> int:
    """The ``serve`` subcommand: boot the TCP gateway (or smoke it)."""
    if args.smoke is not None:
        return _serve_smoke(args.smoke, args.workers, args.shards)

    import asyncio

    from ..serve import ServeServer

    tenants = tuple(args.tenant or ("standard:name='default'",))
    service = _make_service(
        args.engine, args.workers, tenants, args.shards
    )
    server = ServeServer(service, host=args.host, port=args.port)

    async def run() -> None:
        host, port = await server.start()
        shape = (
            f"{args.shards} shards" if args.shards > 1 else "1 service"
        )
        print(
            f"repro.serve gateway on {host}:{port} "
            f"(engine={args.engine}, {shape}, tenants={len(tenants)}) "
            "— Ctrl-C to stop",
            file=sys.stderr,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        service.close()
    return 0


def _run_scenarios(args) -> int:
    """The ``fig-scenarios`` subcommand: render every scenario figure
    and gate on its machine-checked assertions (the conformance
    harness's CLI face)."""
    from ..serve.scenarios import run_scenarios

    reports = run_scenarios(
        args.scenario, small=args.small, n_workers=args.workers
    )
    failed = []
    for report in reports:
        print(report.render())
        print()
        if not report.passed:
            failed.append(report.name)
    if failed:
        print(
            f"scenario conformance FAILED: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"all {len(reports)} scenarios conform", file=sys.stderr
    )
    return 0


def _run_sweep(args) -> int:
    """The ``sweep`` subcommand: an ExperimentSpec grid to a ResultSet."""
    base = ExperimentSpec(
        workload=(args.workload or ["sobel"])[0],
        mode=args.mode,
        config=RuntimeConfig(
            policy=(args.policy or ["accurate"])[0],
            n_workers=args.workers,
            engine=args.engine,
        ),
        repeats=args.repeats if args.repeats is not None else 1,
        small=args.small,
    )
    axes = {}
    if args.workload and len(args.workload) > 1:
        axes["workload"] = args.workload
    if args.policy and len(args.policy) > 1:
        axes["policy"] = args.policy
    if args.param:
        axes["param"] = args.param
    specs = base.sweep(**axes) if axes else [base]
    results = run(specs, parallel=args.parallel)
    print(results.table())
    if args.json:
        results.to_json(args.json)
        print(f"rows written to {args.json}", file=sys.stderr)
    return 0


def _run_top(args) -> int:
    """The ``top`` subcommand: live telemetry view of a gateway."""
    from ..obs import run_top

    if args.port == 0:
        print(
            "top needs the gateway's port (--port N)", file=sys.stderr
        )
        return 2
    return run_top(
        args.host,
        args.port,
        interval_s=args.interval,
        iterations=args.iterations,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1", "table2", "fig1", "fig2", "fig3", "fig4",
            "fig-energy-budget", "fig-serve", "fig-cluster",
            "fig-compile", "fig-scenarios", "all", "sweep", "bench",
            "serve", "top",
        ],
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="shrunken workloads (seconds instead of minutes)",
    )
    parser.add_argument(
        "--benchmark",
        default=None,
        help="restrict fig2 to one benchmark",
    )
    parser.add_argument(
        "--workers", type=int, default=16, help="simulated worker cores"
    )
    parser.add_argument(
        "--out", default=None, help="directory for PGM outputs (fig1/fig3)"
    )
    parser.add_argument(
        "--workload",
        action="append",
        default=None,
        help="sweep: benchmark name (repeatable)",
    )
    parser.add_argument(
        "--policy",
        action="append",
        default=None,
        help="sweep: policy spec, e.g. gtb:buffer_size=16 (repeatable)",
    )
    parser.add_argument(
        "--param",
        action="append",
        type=float,
        default=None,
        help="sweep: knob value (repeatable; default: native)",
    )
    parser.add_argument(
        "--mode",
        default="tasks",
        choices=["tasks", "perforated", "overhead"],
        help="sweep: execution mode",
    )
    parser.add_argument(
        "--engine",
        default="simulated",
        help="sweep: engine spec (simulated/threaded/process/"
        "sequential/...)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="sweep: repeats per cell (default 1); bench: timing repeats "
        "per probe (default 5)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        help="sweep: process-parallel fan-out width",
    )
    parser.add_argument(
        "--json",
        default=None,
        help="sweep: write result rows to this file; "
        "bench: report path (default BENCH_runtime.json)",
    )
    parser.add_argument(
        "--bench-workload",
        action="append",
        default=None,
        help="bench: restrict to one probe (repeatable; "
        "scheduler_throughput/spawn_overhead/spawn_many/"
        "governor_convergence/payload_bandwidth)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="bench: gating baseline report (default: the size-matched "
        f"committed baseline, {BENCH_BASELINE} or "
        f"{BENCH_BASELINE_SMALL}, when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="bench: skip baseline gating even if a baseline exists",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="bench: fractional regression tolerance (default 0.25)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="bench: rewrite the active gating baseline (--baseline or "
        "the size-matched default) from this run",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="serve: TCP port (default 0 = ephemeral)",
    )
    parser.add_argument(
        "--tenant",
        action="append",
        default=None,
        help="serve: tenant spec, e.g. \"premium:name='alice'\" "
        "(repeatable; default one unmetered standard tenant)",
    )
    parser.add_argument(
        "--smoke",
        type=int,
        default=None,
        metavar="N",
        help="serve: instead of serving, push N mixed-tenant jobs "
        "through live gateways on two backends and exit",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="serve: front a sharded ClusterService with N shards "
        "(default 1 = a single TaskService)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="top: seconds between scrapes (default 2)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="top: render N frames and exit (default: loop forever)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="fig-scenarios: restrict to one scenario (repeatable; "
        "default all registered scenarios)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "sweep":
        return _run_sweep(args)
    if args.experiment == "bench":
        return _run_bench(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "top":
        return _run_top(args)
    if args.experiment == "fig-scenarios":
        return _run_scenarios(args)

    out_dir = None
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    def pgm(name: str) -> Path | None:
        return out_dir / name if out_dir else None

    t0 = time.perf_counter()
    todo = (
        ["table1", "table2", "fig1", "fig2", "fig3", "fig4"]
        if args.experiment == "all"
        else [args.experiment]
    )
    for exp in todo:
        if exp == "table1":
            print(table1())
        elif exp == "table2":
            print(
                table2_policy_accuracy(
                    small=args.small, n_workers=args.workers
                ).render()
            )
        elif exp == "fig1":
            print(
                fig1_sobel_approximation(
                    small=args.small,
                    n_workers=args.workers,
                    out_path=pgm("fig1_sobel_approx.pgm"),
                ).render()
            )
        elif exp == "fig2":
            names = (
                [args.benchmark] if args.benchmark else benchmark_names()
            )
            for name in names:
                print(
                    fig2_benchmark(
                        name, small=args.small, n_workers=args.workers
                    ).render()
                )
                print()
        elif exp == "fig3":
            print(
                fig3_sobel_perforation(
                    small=args.small,
                    n_workers=args.workers,
                    out_path=pgm("fig3_sobel_perforation.pgm"),
                ).render()
            )
        elif exp == "fig4":
            print(
                fig4_overhead(
                    small=args.small, n_workers=args.workers
                ).render()
            )
        elif exp == "fig-energy-budget":
            print(
                fig_energy_budget(
                    small=args.small, n_workers=args.workers
                ).render()
            )
        elif exp == "fig-serve":
            from ..serve.figure import fig_serve

            print(
                fig_serve(
                    small=args.small,
                    n_workers=args.workers,
                    engine=args.engine,
                ).render()
            )
        elif exp == "fig-cluster":
            from ..cluster.figure import fig_cluster

            print(
                fig_cluster(
                    small=args.small,
                    n_workers=args.workers,
                    engine=args.engine,
                ).render()
            )
        elif exp == "fig-compile":
            from ..compiler.figure import fig_compile

            print(
                fig_compile(
                    small=args.small,
                    n_workers=args.workers,
                    engine=args.engine,
                ).render()
            )
        print()
    print(f"[{time.perf_counter() - t0:.1f}s total]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
