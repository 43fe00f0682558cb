"""One external benchmark for the whole stack.

    run.py                                   # every workload, a table
    run.py --workload serve_hot --seed 7 --seconds 10 --trace 0
    run.py --workload wire_closed --trace 1  # the per-layer pass
    run.py --selfcheck                       # two full sets must agree
    run.py --waterfall                       # one traced wire job

Each workload runs in fresh child processes of this script, every
answer is checked, and every metric is printed by name with its unit,
sample count and spread.  With ``--workload`` the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json``, or with
``--trace 1`` its ``per_layer`` metrics).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
NOISE_PATH = HERE / "noise.json"
#: Fresh processes timed to their first correct ops, besides the
#: measuring child itself: ``setup_s`` is the median of all of them.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
#: Calibration-loop drift across a workload beyond which the host was
#: not quiet while it ran.
DISTURBED_DRIFT = 0.10
#: ``energy_j_per_op`` is modelled, so two runs of one seed must agree
#: this closely on the workloads that only use simulated engines.
ENERGY_REPEAT_TOLERANCE = 1e-6
ENERGY_EXACT = ("serve_cold", "serve_hot", "cluster_cold", "paper_cells")


class ChildFailed(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import worker

    if args.child == "setup":
        out = worker.setup_probe(args.workload, args.seed, args.spawned_at)
    elif args.child == "trace":
        out = worker.traced(args.workload, args.seed, args.seconds)
    else:
        out = worker.measure(
            args.workload, args.seed, args.seconds, args.reps, args.spawned_at
        )
    print(json.dumps(out))
    return 0


def spawn(mode: str, workload: str, seed: int, seconds, reps) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--child", mode,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--spawned-at", repr(time.time()),
    ]
    if reps is not None:
        command += ["--reps", str(reps)]
    try:
        done = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode} child timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise ChildFailed(
            f"{workload} {mode} child exited {done.returncode}"
        )
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds, reps) -> dict:
    """End-to-end numbers of one workload, measured with nothing
    wrapped."""
    setups = [
        spawn("setup", workload, seed, seconds, reps)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    measured = spawn("measure", workload, seed, seconds, reps)
    setups.append(measured["setup_s"])
    out = stats.aggregate(measured["reps"])
    out["metrics"]["peak_rss_mb"] = {
        "value": measured["peak_rss_mb"],
        "spread": 0.0,
        "reps": 1,
        "samples": 1,
    }
    out["metrics"]["setup_s"] = dict(
        stats.over_reps(setups), samples=len(setups)
    )
    before, after = measured["calibration_ops_per_s"]
    out.update(
        header=measured["header"],
        failures=measured["failures"],
        calibration_ops_per_s=[before, after],
        disturbed=abs(after - before) / before > DISTURBED_DRIFT,
    )
    return out


def run_guarded(workload: str, seed: int, seconds, reps) -> list[dict]:
    """Quiet-host guard: a run across which the calibration loop moved
    by more than 10 % is marked ``disturbed`` and repeated once.  Both
    runs are returned - the better one is never silently kept."""
    runs = [run_workload(workload, seed, seconds, reps)]
    if runs[0]["disturbed"]:
        runs.append(run_workload(workload, seed, seconds, reps))
    return runs


def run_traced(workload: str, seed: int, seconds) -> dict:
    traced = spawn("trace", workload, seed, seconds, None)
    out = stats.aggregate(traced["reps"])
    out.update(
        header=traced["header"],
        failures=traced["failures"],
        layers=traced["layers"],
        waterfall=traced["waterfall"],
    )
    return out


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_header(header: dict, calibration) -> None:
    fields = ", ".join(f"{k}={v}" for k, v in header.items())
    print(f"# {fields}")
    if calibration:
        before, after = calibration
        print(
            f"# calibration {before:,.0f} -> {after:,.0f} ops/s "
            f"({(after - before) / before:+.1%})"
        )


def print_run(spec: dict, run: dict) -> None:
    print_header(run["header"], run["calibration_ops_per_s"])
    flag = "  DISTURBED (host was not quiet)" if run["disturbed"] else ""
    print(
        f"{run['header']['workload']}: attempted {run['attempted']}, "
        f"failed {run['failed']} "
        f"(failed_frac {run['failed_frac']:.4f}){flag}"
    )
    for reason in run["failures"]:
        print(f"  failed op: {reason}")
    print(f"  {'metric':<18}{'value':>14} {'unit':<6}{'spread':>8}"
          f"{'reps':>6}{'samples':>9}")
    for metric in spec["end_to_end"]:
        m = run["metrics"][metric["name"]]
        print(
            f"  {metric['name']:<18}{m['value']:>14.6g} {metric['unit']:<6}"
            f"{m['spread']:>8.2%}{m['reps']:>6}{m['samples']:>9}"
        )


def print_layers(spec: dict, traced: dict) -> None:
    print_header(traced["header"], None)
    print(
        f"{traced['header']['workload']} traced pass: attempted "
        f"{traced['attempted']}, failed {traced['failed']}"
    )
    for metric in spec["per_layer"]:
        if metric["name"] in traced["layers"]:
            value = traced["layers"][metric["name"]]
            print(f"  {metric['name']:<34}{value:>14.6g} {metric['unit']}")


def result_line(run: dict, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def single(spec: dict, args) -> int:
    """The driver's contract: one workload, one JSON line last."""
    if args.trace:
        run = run_traced(args.workload, args.seed, args.seconds)
        print_layers(spec, run)
        unknown = set(run["layers"]) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            print(f"# not in BENCHMARK.json: {sorted(unknown)}")
        metrics = {
            m["name"]: {
                "value": run["layers"].get(m["name"], 0.0),
                "unit": m["unit"],
            }
            for m in spec["per_layer"]
        }
    else:
        run = run_workload(args.workload, args.seed, args.seconds, args.reps)
        print_run(spec, run)
        metrics = {
            m["name"]: {
                "value": run["metrics"][m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in spec["end_to_end"]
        }
    print(result_line(run, metrics))
    return 0


def full_set(spec: dict, args) -> dict:
    """Every workload through the quiet-host guard; the last run of each
    is the one later comparisons use."""
    last = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = run_guarded(workload, args.seed, args.seconds, args.reps)
        for run in runs:
            print_run(spec, run)
            print()
        last[workload] = runs[-1]
        if args.trace:
            print_layers(
                spec, run_traced(workload, args.seed, args.seconds)
            )
            print()
    return last


def selfcheck(spec: dict, args) -> int:
    """Two full sets on the same tree must agree within the bounds; the
    run-to-run difference seen is written out as the noise floor."""
    first, second = full_set(spec, args), full_set(spec, args)
    problems, noise = [], {}
    for workload in first:
        noise[workload] = {}
        for run in (first[workload], second[workload]):
            if run["failed"]:
                problems.append(f"{workload}: {run['failed']} failed ops")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = first[workload]["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            gap = abs(stats.worse_by(metric, a, b))
            noise[workload][name] = {
                "first": a,
                "second": b,
                "run_to_run": gap,
                "spread_over_reps": max(
                    first[workload]["metrics"][name]["spread"],
                    second[workload]["metrics"][name]["spread"],
                ),
            }
            limit = metric["bound"]
            if name == "energy_j_per_op" and workload in ENERGY_EXACT:
                limit = ENERGY_REPEAT_TOLERANCE
            if gap > limit:
                problems.append(
                    f"{workload} {name}: {a:.6g} vs {b:.6g} "
                    f"differ by {gap:.2%} (allowed {limit:.2%})"
                )
    NOISE_PATH.write_text(json.dumps(noise, indent=2, sort_keys=True) + "\n")
    print(f"run-to-run noise written to {NOISE_PATH.relative_to(ROOT)}")
    for problem in problems:
        print(f"DISAGREE {problem}")
    print("selfcheck " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def waterfall(args) -> int:
    traced = run_traced("wire_closed", args.seed, args.seconds)
    print(traced["waterfall"] or "no executed job was traced")
    return 0 if traced["waterfall"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measure for about this long (default: run_seconds of "
        "BENCHMARK.json)",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="measure exactly this many repetitions instead",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the separate traced pass (per-layer metrics)",
    )
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--waterfall", action="store_true")
    parser.add_argument("--child", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(
            f"{ROOT} holds no src/repro to measure (or no BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    if args.child:
        return child_main(args)
    spec = json.loads(SPEC_PATH.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    try:
        if args.selfcheck:
            return selfcheck(spec, args)
        if args.waterfall:
            return waterfall(args)
        if args.workload:
            return single(spec, args)
        full_set(spec, args)
        return 0
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
