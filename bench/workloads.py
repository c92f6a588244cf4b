"""Seeded inputs of the benchmark's three workloads.

A workload run repeats one round of commands.  ``build_round`` draws that
round from ``--seed``: the same seed gives the same commands.  The things
that set a command's cost (box size, direction count, filter duration,
limits scope) follow fixed per-round lists, so every seed's round does the
same amount of work; the seed draws which boxes, regions, masses, areas
and flags fill them in.

Every workload also carries a short tail of the other command kinds, so
that each run reports every end-to-end metric: the sweeps get a CLI tail,
and ``cli-mix`` gets one single-point sweep per round.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from oracle import Arm

WORKLOADS = ("sweep-boundary", "sweep-reachable", "cli-mix")
POOLS = json.loads(Path(__file__).with_name("pools.json").read_text(encoding="utf-8"))

MODE_FLAGS = {"transient": "transient", "quasi_static_free": "qs-free",
              "quasi_static_clamped": "qs-clamped"}
AREAS = (0.25, 0.5, 1.0, 2.0, 4.0)

# (region scope, mode scope, format, robot mass); all but one load the arm
# model for its constant mass, so the median limits command is one that does
LIMITS_VARIANTS = (
    ("all", "all", "csv", "constant"), ("one", "all", "json", "constant"),
    ("all", "one", "json", "explicit"), ("one", "one", "csv", "constant"),
    ("all", "one", "csv", "constant"), ("one", "all", "json", "constant"),
)
# (robot mass, budget, recycling, power cap, velocity filter, duration [s])
FILTER_VARIANTS = (
    ("constant", "k0_max", False, False, True, 1.0),
    ("number", "u_s_max", True, True, True, 1.5),
    ("constant", "joules", True, False, True, 0.5),
    ("number", "k0_max", False, True, False, 2.0),
    ("constant", "u_s_max", False, True, True, 1.0),
    ("number", "joules", False, False, True, 1.5),
)
SIMULATE_CLAMPED = (False, True, False, False, True, False)


@dataclass
class Op:
    kind: str                       # sweep | simulate | limits | filter
    argv: list[str]
    out: Path
    spec: dict                      # what the output checks need
    files: dict[Path, str] = field(default_factory=dict)


def build_round(workload: str, seed: int, work: Path, table: dict,
                arm: Arm) -> list[Op]:
    rng = random.Random(f"{workload}/{seed}")
    ops: list[Op] = []
    if workload == "sweep-boundary":
        for box in _draw(rng, POOLS["boundary"]):
            ops.append(_sweep(rng, work, len(ops), box, POOLS["boundary"]))
    elif workload == "sweep-reachable":
        for box in _draw(rng, POOLS["reachable"]):
            ops.append(_sweep(rng, work, len(ops), box, POOLS["reachable"]))
    elif workload == "cli-mix":
        probe = POOLS["probe"]
        corner = rng.choice(POOLS["reachable"]["groups"][0]["boxes"])["min"]
        ops.append(_sweep(rng, work, 0, {"min": corner, "max": corner}, probe))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops += _cli_commands(rng, work, len(ops), table, arm)
    # commands of one kind do not run back to back
    rng.shuffle(ops)
    return ops


def _draw(rng: random.Random, pool: dict) -> list[dict]:
    boxes = []
    for group in pool["groups"]:
        boxes += rng.sample(group["boxes"], group["take"])
    return boxes


def _axis(lo: float, hi: float, spacing: float) -> list[float]:
    count = int(round((hi - lo) / spacing)) + 1
    return [lo + spacing * i for i in range(count)]


def _sweep(rng, work: Path, index: int, box: dict, pool: dict) -> Op:
    spacing = pool["grid_spacing"]
    axes = [_axis(lo, hi, spacing) for lo, hi in zip(box["min"], box["max"])]
    config = {
        "box_min": list(box["min"]), "box_max": list(box["max"]),
        "grid_spacing": spacing, "n_directions": pool["n_directions"],
        "direction_style": pool["direction_style"],
        "contact_area": rng.choice(AREAS),
        "payload": rng.choice((0.0, 0.0, 0.5, 1.5)),
    }
    path = work / f"op{index:03d}.yaml"
    out = work / f"op{index:03d}"
    spec = dict(config, points=[(x, y, z) for z in axes[2] for y in axes[1]
                                for x in axes[0]],
                all_reachable=pool["all_reachable"])
    argv = ["sweep", "--config", str(path), "--workers", str(pool["workers"]),
            "--out", str(out)]
    return Op("sweep", argv, out, spec, {path: yaml.safe_dump(config)})


def _cli_commands(rng, work: Path, start: int, table: dict,
                  arm: Arm) -> list[Op]:
    """Six commands each of simulate, limits and filter."""
    regions = list(table)
    ops: list[Op] = []

    def out_dir() -> Path:
        return work / f"op{start + len(ops):03d}"

    for clamped in SIMULATE_CLAMPED:
        row = table[rng.choice(regions)]
        spec = {"mr": rng.uniform(1.0, 20.0),
                "mh": math.inf if clamped else row["m_h"],
                "k": row["k"], "v0": rng.uniform(0.05, 2.0)}
        out = out_dir()
        argv = ["simulate", "--mr", repr(spec["mr"]), "--mh", repr(spec["mh"]),
                "--k", repr(spec["k"]), "--v0", repr(spec["v0"]),
                "--out", str(out)]
        ops.append(Op("simulate", argv, out, spec))

    for scope_region, scope_mode, fmt, mass in LIMITS_VARIANTS:
        spec = {"region": rng.choice(regions) if scope_region == "one" else "all",
                "mode": rng.choice(list(MODE_FLAGS)) if scope_mode == "one" else "all",
                "format": fmt, "area": rng.choice(AREAS),
                "mass": rng.uniform(1.0, 20.0) if mass == "explicit" else None,
                "payload": rng.choice((0.0, 0.5, 2.0)) if mass == "constant" else 0.0}
        out = out_dir()
        argv = ["limits", "--region", spec["region"],
                "--mode", MODE_FLAGS.get(spec["mode"], "all"),
                "--area", repr(spec["area"]), "--format", fmt, "--out", str(out)]
        if spec["mass"] is not None:
            argv += ["--mass", repr(spec["mass"])]
        else:
            argv += ["--payload", repr(spec["payload"])]
        ops.append(Op("limits", argv, out, spec))

    for mass, budget, recycling, cap, vfilter, duration in FILTER_VARIANTS:
        scenario = {
            "region": rng.choice(regions), "mode": rng.choice(list(MODE_FLAGS)),
            "contact_area": rng.choice(AREAS),
            "payload": rng.choice((0.0, 0.5, 2.0)),
            "robot_mass": "constant" if mass == "constant"
            else rng.uniform(2.0, 15.0),
            "budget": rng.uniform(0.05, 2.0) if budget == "joules" else budget,
            "duration": duration, "period": 1e-3,
            "recycling": recycling, "velocity_filter": vfilter,
        }
        if cap:
            scenario["power_cap"] = rng.uniform(0.5, 20.0)
        if rng.random() < 0.5:
            scenario["plant_mass"] = rng.uniform(1.0, 20.0)
        plant = scenario.get("plant_mass") or (
            arm.constant_mass(scenario["payload"]) if mass == "constant"
            else scenario["robot_mass"])
        if rng.random() < 0.5:
            # gain * period / mass <= 0.05: the plant never overshoots
            scenario["gain"] = rng.uniform(5.0, 50.0) * plant
        if rng.random() < 0.5:
            scenario["nominal_speed"] = rng.uniform(0.05, 3.0)
        out = out_dir()
        path = work / f"{out.name}.yaml"
        argv = ["filter", "--scenario", str(path), "--out", str(out)]
        ops.append(Op("filter", argv, out, scenario,
                      {path: yaml.safe_dump(scenario)}))
    return ops
