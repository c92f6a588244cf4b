"""Spans around the calls that cross from one pflsafe module into another.

``Tracer.install`` replaces each boundary function, in the namespace of the
module that calls it, with a timing wrapper; ``uninstall`` puts the
originals back, so an untraced round runs the program's own functions and
the program itself carries no tracing.  Spans stay in memory.  A span's
self time is its duration minus the time covered by its child spans.

``sweep --workers N`` runs its scanlines in forked worker processes, which
inherit the wrappers.  A worker writes the spans of each finished scanline
to ``<spool>/worker-<pid>.jsonl``; ``collect`` reads them back after the
pool has shut down.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import random
import statistics
import time
from pathlib import Path

#: (module that makes the call, attribute it looks up, span name)
BOUNDARIES = (
    ("cli", "load_body_table", "body.load_body_table"),
    ("cli", "load_robot_model", "dynamics.load_robot_model"),
    ("cli", "simulate", "collision.simulate"),
    ("cli", "compute_limit", "limits.compute_limit"),
    ("cli", "simulate_loop", "safety_filter.simulate_loop"),
    ("cli", "line_chart", "svgplot.line_chart"),
    ("cli", "run_sweep", "sweep.run_sweep"),
    ("cli", "scaling_report", "sweep.scaling_report"),
    ("cli", "write_sweep_csv", "sweep.write_sweep_csv"),
    ("cli", "write_scaling_csv", "sweep.write_scaling_csv"),
    ("cli", "write_boxstats_json", "sweep.write_boxstats_json"),
    ("cli", "render_sweep_svg", "sweep.render_sweep_svg"),
    ("svgplot", "grouped_boxplot", "svgplot.grouped_boxplot"),
    ("sweep", "_sweep_scanline", "sweep.scanline"),
    ("sweep", "inverse_kinematics", "dynamics.inverse_kinematics"),
    ("sweep", "reflected_mass", "dynamics.reflected_mass"),
    ("sweep", "manipulability", "dynamics.manipulability"),
    ("safety_filter.LoopLog", "write_csv", "safety_filter.write_csv"),
)


def _annotate(name: str, args: tuple, result) -> dict | None:
    """Counts taken at the boundary, from the arguments and the result."""
    if name == "dynamics.inverse_kinematics":
        extra = {"ok": bool(result.success), "iters": int(result.iterations)}
        if result.success:
            extra["target"] = [float(v) for v in args[1]]
            extra["q"] = [float(v) for v in result.q]
        return extra
    if name == "collision.simulate":
        return {"steps": len(result[0].t)}
    if name == "safety_filter.simulate_loop":
        return {"steps": len(result.t)}
    if name == "sweep.run_sweep":
        return {"grid": result.n_grid, "reachable": result.n_reachable}
    if name == "sweep.write_sweep_csv":
        return {"bytes": os.path.getsize(args[1])}
    return None


class Tracer:
    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        for stale in self.spool.glob("worker-*.jsonl"):
            stale.unlink()
        self.main_pid = self.pid = os.getpid()
        self.spans: list[tuple] = []   # (name, start_ns, end_ns, self_ns, extra)
        self._children: list[list[int]] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:       # first call in a forked worker
                self.pid = os.getpid()
                self.spans, self._children = [], []
            covered = [0]
            self._children.append(covered)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._children.pop()
                if self._children:
                    self._children[-1][0] += end - start
            self.spans.append((name, start, end, end - start - covered[0],
                               _annotate(name, args, result)))
            if name == "sweep.scanline" and self.pid != self.main_pid:
                with open(self.spool / f"worker-{self.pid}.jsonl", "a",
                          encoding="utf-8") as fh:
                    fh.write(json.dumps(self.spans) + "\n")
                self.spans = []
            return result
        return wrapper

    def install(self) -> None:
        for owner, attr, name in BOUNDARIES:
            module, _, cls = owner.partition(".")
            target = importlib.import_module(f"pflsafe.{module}")
            if cls:
                target = getattr(target, cls)
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def collect(self) -> None:
        """Move the spans that worker processes spooled into ``spans``."""
        for path in sorted(self.spool.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    self.spans.extend(tuple(s) for s in json.loads(line))
            path.unlink()


def layer_metrics(spans: list[tuple], rounds: int) -> dict[str, float]:
    """Per-layer totals of the traced spans, per traced round."""
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def calls(name):
        return len(by_name.get(name, ())) / rounds

    def ms(name, index=None):
        picked = by_name.get(name, ())
        total = sum((s[2] - s[1]) if index is None else s[index] for s in picked)
        return total / 1e6 / rounds

    def extra_sum(name, key):
        return sum(s[4][key] for s in by_name.get(name, ())) / rounds

    out: dict[str, float] = {}
    ik = by_name.get("dynamics.inverse_kinematics", [])
    for label, ok in (("ok", True), ("fail", False)):
        picked = [s for s in ik if s[4]["ok"] is ok]
        prefix = f"dynamics.inverse_kinematics.{label}"
        out[f"{prefix}.calls"] = len(picked) / rounds
        out[f"{prefix}.ms"] = sum(s[2] - s[1] for s in picked) / 1e6 / rounds
        out[f"{prefix}.iters"] = sum(s[4]["iters"] for s in picked) / rounds
    out["dynamics.inverse_kinematics.converged_ratio"] = (
        sum(s[4]["ok"] for s in ik) / len(ik) if ik else 0.0)
    for name in ("dynamics.reflected_mass", "dynamics.manipulability",
                 "dynamics.load_robot_model", "collision.simulate",
                 "safety_filter.simulate_loop", "limits.compute_limit",
                 "svgplot.line_chart"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.ms"] = ms(name)
    out["sweep.run_sweep.self_ms"] = ms("sweep.run_sweep", 3)
    out["sweep.grid_points"] = extra_sum("sweep.run_sweep", "grid")
    out["sweep.reachable"] = extra_sum("sweep.run_sweep", "reachable")
    out["sweep.write_sweep_csv.ms"] = ms("sweep.write_sweep_csv")
    out["sweep.write_sweep_csv.bytes"] = extra_sum("sweep.write_sweep_csv", "bytes")
    for name in ("sweep.write_boxstats_json", "sweep.scaling_report",
                 "sweep.render_sweep_svg", "svgplot.grouped_boxplot",
                 "body.load_body_table", "safety_filter.write_csv"):
        out[f"{name}.ms"] = ms(name)
    out["collision.steps"] = extra_sum("collision.simulate", "steps")
    out["safety_filter.steps"] = extra_sum("safety_filter.simulate_loop", "steps")
    out["cli.self_ms"] = ms("cli.main", 3)
    return out


def solved_ik_points(spans: list[tuple]) -> list[tuple[list, list]]:
    return [(s[4]["target"], s[4]["q"]) for s in spans
            if s[0] == "dynamics.inverse_kinematics" and s[4]["ok"]]


def kernel_us(seed: int, configs: int = 200) -> dict[str, float]:
    """Median time per call [us] of the dynamics kernels on seeded
    configurations drawn inside the joint limits."""
    from pflsafe import assets
    from pflsafe.dynamics import (ReflectedMassQuery, forward_kinematics,
                                  load_robot_model, mass_matrix,
                                  point_jacobian, reflected_mass)

    model = load_robot_model(assets.robot_model_path())
    rng = random.Random(seed)
    qs, us = [], []
    for _ in range(configs):
        qs.append([rng.uniform(lo, hi) for lo, hi in
                   zip(model.lower_limits, model.upper_limits)])
        u = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = sum(c * c for c in u) ** 0.5
        us.append([c / norm for c in u])
    calls = {
        "dynamics.forward_kinematics.us": lambda q, u: forward_kinematics(model, q),
        "dynamics.point_jacobian.us": lambda q, u: point_jacobian(model, q),
        "dynamics.mass_matrix.us": lambda q, u: mass_matrix(model, q),
        "dynamics.reflected_mass.us":
            lambda q, u: reflected_mass(model, ReflectedMassQuery(q=q, u=u)),
    }
    out = {}
    for name, call in calls.items():
        times = []
        for q, u in zip(qs, us):
            start = time.perf_counter_ns()
            call(q, u)
            times.append(time.perf_counter_ns() - start)
        out[name] = statistics.median(times) / 1e3
    return out
