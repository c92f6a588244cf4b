#!/usr/bin/env python3
"""Run one pflsafe benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep-boundary --seed 1 --seconds 25 --trace 0

The run is a closed loop with one client.  It draws one round of commands
from the seed (see workloads.py), then issues the round through
``pflsafe.cli.main`` in-process, one command after another, until
``--seconds`` have passed; it always finishes the round it is in.  After
each command the outputs are checked against computations made apart from
the program (oracle.py); the checks are not timed.  Per-command times are
processor time of this process and the pool workers it reaps; ``wall_s``
is wall-clock.  Every timed command sits between two units of reference
work (calibration.py), and its times are scaled to the reference speed
(bench/README.md says why).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
rounds (see tracing.py), per round.  The last line of stdout is one JSON
object; a copy goes to bench/results/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DATA = SRC / "pflsafe" / "data"
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, kernel_us, layer_metrics, solved_ik_points  # noqa: E402

#: fresh interpreters timed for setup_s, after one that compiles bytecode
SETUP_RUNS = 9
#: untraced commands a run needs so that ten lie beyond cmd_ms.p90
MIN_COMMANDS = 100

SETUP_CODE = """
import sys, time
start = time.process_time()
sys.path.insert(0, sys.argv[1])
import pflsafe
from pflsafe import assets
pflsafe.load_body_table(assets.body_table_path())
pflsafe.load_robot_model(assets.robot_model_path())
print(time.process_time() - start)
"""


def cpu_seconds() -> float:
    """Processor time of this process and of the children it has reaped
    (a sweep's pool workers are reaped when the sweep returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup() -> float:
    """Median processor time to import pflsafe and load the packaged table
    and model in a fresh interpreter."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times[1:])


def run_command(main, op) -> tuple[int | str, float, float, str]:
    """Issue one command; returns (exit code or error, wall seconds,
    processor seconds, stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            code = main(op.argv)
        except SystemExit as exc:
            code = f"exit {exc.code}"
        except Exception:
            code = traceback.format_exc()
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
    if code != 0:
        code = f"{code}\n{stderr.getvalue()}"
    return code, wall, cpu, stdout.getvalue()


def check_outputs(op, stdout: str, table: dict, arm) -> None:
    if op.kind == "sweep":
        oracle.check_sweep(op.out, op.spec, table, arm, stdout)
    elif op.kind == "simulate":
        oracle.check_simulate(op.out, op.spec)
    elif op.kind == "limits":
        oracle.check_limits(op.out, op.spec, table, arm)
    else:
        oracle.check_filter(op.out, op.spec, table, arm)


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pflsafe" / "__init__.py").is_file():
        print(f"bench: no pflsafe sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = None if args.trace else measure_setup()

    import pflsafe
    from pflsafe import cli
    if Path(pflsafe.__file__).resolve().parent != (SRC / "pflsafe").resolve():
        print(f"bench: imported pflsafe from {pflsafe.__file__}", file=sys.stderr)
        return 2

    table = oracle.read_table(DATA / "body_regions.csv")
    arm = oracle.Arm(DATA / "panda.yaml")
    work = BENCH / "out" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.build_round(args.workload, args.seed, work, table, arm)
    for op in ops:
        for path, text in op.files.items():
            path.write_text(text, encoding="utf-8")

    tracer = Tracer(work / "spool") if args.trace else None
    attempted = failed = wrong = 0
    problems: list[str] = []        # failed commands and failed checks
    rounds = {False: 0, True: 0}    # timed rounds, untraced and traced
    # per timed command: (round, traced, kind, succeeded, processor s,
    # wall s, calibration unit before [s], unit after [s])
    timed: list[tuple] = []

    def run_round(main_fn, traced: bool | None) -> None:
        """Issue the round.  Unless ``traced`` is None (the untimed first
        round), every command sits between two calibration units and its
        times go to ``timed``."""
        nonlocal attempted, failed, wrong
        for op in ops:
            before = calibration.measure() if traced is not None else 0.0
            code, elapsed, cpu, stdout = run_command(main_fn, op)
            after = calibration.measure() if traced is not None else 0.0
            attempted += 1
            if traced is not None:
                timed.append((rounds[traced], traced, op.kind, code == 0,
                              cpu, elapsed, before, after))
            if code != 0:
                failed += 1
                problems.append(f"{' '.join(op.argv)}: {code}")
                continue
            try:
                check_outputs(op, stdout, table, arm)
            except oracle.CheckFailed as exc:
                wrong += 1
                problems.append(f"{' '.join(op.argv)}: {exc}")
        if traced is not None:
            rounds[traced] += 1

    # the first round creates the output files and warms the caches; untimed
    run_round(cli.main, None)
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and rounds[False] > rounds[True]
        if traced:
            tracer.install()
            run_round(tracer.wrap("cli.main", cli.main), True)
            tracer.uninstall()
            tracer.collect()
        else:
            run_round(cli.main, False)
        if time.perf_counter() < deadline:
            continue
        if args.trace and rounds[True]:
            break
        if not args.trace and sum(ok and not tr for _, tr, _, ok, *_ in timed) \
                >= MIN_COMMANDS:
            break

    # every time at the reference speed (calibration.py)
    factors = calibration.factors([t[5:] for t in timed])
    walls = {traced: [0.0] * count for traced, count in rounds.items()}
    times: dict[str, list[float]] = {"sweep": [], "simulate": [], "limits": [],
                                     "filter": []}
    for (rnd, traced, kind, ok, cpu, wall, _, _), factor in zip(timed, factors):
        walls[traced][rnd] += wall * factor
        if ok and not traced:
            times[kind].append(cpu * factor)

    if args.trace:
        try:
            oracle.check_ik_points(arm, solved_ik_points(tracer.spans))
        except oracle.CheckFailed as exc:
            wrong += 1
            problems.append(str(exc))
        values = layer_metrics(tracer.spans, rounds[True])
        ik_calls = sum(values[f"dynamics.inverse_kinematics.{k}.calls"]
                       for k in ("ok", "fail"))
        if ik_calls != values["sweep.grid_points"]:
            # every grid point gets one IK call; fewer spans means that
            # worker processes did not inherit the wrappers
            print(f"bench: {ik_calls} IK spans for "
                  f"{values['sweep.grid_points']} grid points", file=sys.stderr)
            return 1
        values.update(kernel_us(args.seed))
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in values.items()}
    else:
        ms = {kind: [t * 1e3 for t in values] for kind, values in times.items()}
        every = [t for values in ms.values() for t in values]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "sweep_ms.p50": {"value": statistics.median(ms["sweep"]), "unit": "ms"},
            "simulate_ms.p50": {"value": statistics.median(ms["simulate"]), "unit": "ms"},
            "limits_ms.p50": {"value": statistics.median(ms["limits"]), "unit": "ms"},
            "filter_ms.p50": {"value": statistics.median(ms["filter"]), "unit": "ms"},
            "cmd_ms.p90": {"value": percentile(every, 90), "unit": "ms"},
        }

    for line in problems[:20]:
        print(f"bench: {line}", file=sys.stderr)
    result = {"correct": wrong == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def unit_of(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"calls": "count", "iters": "count", "steps": "count",
            "grid_points": "count", "reachable": "count", "bytes": "bytes",
            "ms": "ms", "self_ms": "ms", "us": "us", "converged_ratio": "ratio",
            "overhead_pct": "%"}[suffix]


if __name__ == "__main__":
    sys.exit(main())
