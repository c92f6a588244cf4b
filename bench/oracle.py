"""Output checks computed apart from the program.

Every check reads the artefacts a ``pflsafe`` command wrote and compares
them with numbers derived here from the input files alone (the body-region
CSV and the arm YAML) or with properties the method must have.  Nothing in
this module imports ``pflsafe``.  A failed check raises ``CheckFailed``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import yaml

MODES = ("transient", "quasi_static_free", "quasi_static_clamped")
#: half the moving link mass of the packaged arm, as the paper states it
REFERENCE_CONSTANT_MASS = 5.545724


class CheckFailed(AssertionError):
    """An artefact disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ------------------------------------------------------------------ inputs

def region_id(label: str) -> str:
    return re.sub(r"[^a-z]+", "_", label.lower()).strip("_")


def read_table(path: Path) -> dict[str, dict]:
    """Body-region rows keyed by region id; stiffness converted to N/m."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    rows = {}
    for rec in csv.DictReader(lines):
        rows[region_id(rec["region"])] = {
            "f": float(rec["f_max_qs_N"]),
            "p": float(rec["p_max_qs_N_per_cm2"]),
            "k": float(rec["k_N_per_mm"]) * 1000.0,
            "m_h": float(rec["m_h_kg"]),
            "mult": float(rec["transient_mult"]),
        }
    return rows


class Arm:
    """The arm YAML read directly: masses, reach and forward kinematics."""

    def __init__(self, path: Path):
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        self.links = raw["links"]
        self.ee = raw.get("end_effector", {})
        self.moving_mass = sum(float(ln["mass"]) for ln in self.links
                               if ln.get("moving", True))
        offsets = [math.hypot(*ln["joint"].get("xyz", [0, 0, 0]))
                   for ln in self.links[1:]]
        offsets.append(math.hypot(*self.ee.get("xyz", [0, 0, 0])))
        #: chain-length bound: no tool point lies farther than this from
        #: joint 1's origin
        self.reach = sum(offsets)
        self.shoulder = tuple(float(v) for v in
                              self.links[0]["joint"].get("xyz", [0, 0, 0]))

    def constant_mass(self, payload: float = 0.0) -> float:
        return 0.5 * self.moving_mass + payload

    def outside_reach(self, point) -> bool:
        return math.dist(point, self.shoulder) > self.reach

    def tool_position(self, q) -> tuple[float, float, float]:
        """Forward kinematics with plain 3x3 lists (revolute joints)."""
        rot = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        pos = [0.0, 0.0, 0.0]
        for link, qi in zip(self.links, q):
            joint = link["joint"]
            pos = _add(pos, _apply(rot, joint.get("xyz", [0, 0, 0])))
            rot = _mul(rot, _rpy(*joint.get("rpy", [0, 0, 0])))
            rot = _mul(rot, _rodrigues(joint.get("axis", [0, 0, 1]), qi))
        pos = _add(pos, _apply(rot, self.ee.get("xyz", [0, 0, 0])))
        return tuple(pos)


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def _apply(r, v):
    return [sum(r[i][k] * float(v[k]) for k in range(3)) for i in range(3)]


def _add(a, b):
    return [x + y for x, y in zip(a, b)]


def _rpy(roll, pitch, yaw):
    cr, sr, cp, sp = math.cos(roll), math.sin(roll), math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rz = [[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]]
    ry = [[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]]
    rx = [[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]]
    return _mul(_mul(rz, ry), rx)


def _rodrigues(axis, angle):
    n = math.sqrt(sum(float(a) ** 2 for a in axis))
    x, y, z = (float(a) / n for a in axis)
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    return [[c + x * x * t, x * y * t - z * s, x * z * t + y * s],
            [y * x * t + z * s, c + y * y * t, y * z * t - x * s],
            [z * x * t - y * s, z * y * t + x * s, c + z * z * t]]


# --------------------------------------------------------------- formulas

def elastic_budget(row: dict, mode: str, area: float) -> float:
    """u = F_eff^2 / 2k with F_eff = min(f, A p) * mult (mult: transient)."""
    force = min(row["f"], area * row["p"])
    if mode == "transient":
        force *= row["mult"]
    return force * force / (2.0 * row["k"])


def speed_limit(row: dict, mode: str, mass: float, area: float) -> float:
    u = elastic_budget(row, mode, area)
    if mode == "quasi_static_clamped":
        return math.sqrt(2.0 * u / mass)
    return math.sqrt(2.0 * u * (1.0 / mass + 1.0 / row["m_h"]))


def inverse_mass(row: dict, mode: str, v: float, area: float) -> float:
    """The 1/m_r that produces speed limit v for this region and mode."""
    inv = v * v / (2.0 * elastic_budget(row, mode, area))
    if mode != "quasi_static_clamped":
        inv -= 1.0 / row["m_h"]
    return inv


# --------------------------------------------------------------- manifests

def check_manifest(out: Path, expected_outputs: list[str]) -> None:
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    for name, entry in manifest["inputs"].items():
        digest = hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
        require(digest == entry["sha256"],
                f"manifest: sha256 of input {name} does not match the file")
    require(sorted(manifest["outputs"]) == sorted(expected_outputs),
            f"manifest: outputs {manifest['outputs']} != {expected_outputs}")
    for name in expected_outputs:
        require((out / name).is_file(), f"manifest: output {name} missing")


# ------------------------------------------------------------------- sweep

def read_sweep_csv(path: Path) -> dict[tuple[str, str, str], list[float]]:
    samples: dict[tuple[str, str, str], list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        require(fh.readline().strip() == "region,mode,mass_source,sample",
                "sweep_result.csv: bad header")
        for line in fh:
            region, mode, source, value = line.rstrip("\n").split(",")
            samples.setdefault((region, mode, source), []).append(float(value))
    return samples


def check_sweep(out: Path, job: dict, table: dict, arm: Arm,
                stdout: str) -> None:
    """Check the artefacts of one ``pflsafe sweep`` job."""
    samples = read_sweep_csv(out / "sweep_result.csv")
    stats = json.loads((out / "fig_boxstats.json").read_text(encoding="utf-8"))
    sweep_counts(samples, stats, job, table, arm, stdout)
    sweep_masses(samples, stats, job, table, arm)
    sweep_order(samples, table)
    sweep_boxstats(samples, stats, table)
    check_manifest(out, ["sweep_result.csv", "scaling_report.csv",
                         "fig_boxstats.json", "sweep_boxplot.svg"])


def sweep_counts(samples, stats, job, table: dict, arm: Arm,
                 stdout: str) -> None:
    """Grid and reach counts, and reachable x directions samples each."""
    counts = stats["counts"]
    n_grid = len(job["points"])
    require(counts["grid_points"] == n_grid,
            f"grid points {counts['grid_points']} != {n_grid}")
    reachable = counts["reachable"]
    require(reachable + counts["unreachable"] == n_grid,
            "reachable + unreachable != grid points")
    require(f"grid points {n_grid}, reachable {reachable}," in stdout,
            "stdout counts disagree with fig_boxstats.json")
    inside = sum(not arm.outside_reach(p) for p in job["points"])
    require(reachable <= inside,
            f"{reachable} reachable points but only {inside} lie inside the "
            f"chain-length bound {arm.reach:.4f} m")
    if job["all_reachable"]:
        require(reachable == n_grid,
                f"only {reachable} of {n_grid} points reachable")
    keys = {(rid, mode, source) for rid in table for mode in MODES
            for source in ("reflected", "constant")}
    require(set(samples) == keys, "sweep_result.csv: region/mode/source "
            "combinations missing or unexpected")
    for key, values in samples.items():
        want = 1 if key[2] == "constant" else reachable * job["n_directions"]
        require(len(values) == want,
                f"{'/'.join(key)}: {len(values)} samples, expected {want}")


def sweep_masses(samples, stats, job, table: dict, arm: Arm) -> None:
    """Every region's speed limit at sample i implies one reflected mass."""
    area = job["contact_area"]
    iso = arm.constant_mass(job["payload"])
    require(close(iso, stats["constant_effective_mass_kg"], 1e-12),
            "constant effective mass in fig_boxstats.json differs from YAML")
    if job["payload"] == 0.0:
        require(abs(iso - REFERENCE_CONSTANT_MASS) < 1e-6,
                f"constant mass {iso} != {REFERENCE_CONSTANT_MASS}")
    reference = None
    for rid, row in table.items():
        for mode in MODES:
            inv_c = inverse_mass(row, mode, samples[(rid, mode, "constant")][0],
                                 area)
            require(close(inv_c, 1.0 / iso, 1e-9),
                    f"{rid}/{mode}: constant sample implies mass "
                    f"{1.0 / inv_c if inv_c else math.inf}, not {iso}")
            inv = [inverse_mass(row, mode, v, area)
                   for v in samples[(rid, mode, "reflected")]]
            if reference is None:
                reference = inv
                require(all(x > 0.0 for x in inv),
                        "a reflected mass is not positive and finite")
            slack = 1e-9 / row["m_h"]
            for a, b in zip(inv, reference):
                require(close(a, b, 1e-9, slack),
                        f"{rid}/{mode}: sample implies reflected mass "
                        f"{1.0 / a if a else math.inf}, another region "
                        f"{1.0 / b}")


def sweep_order(samples, table: dict) -> None:
    """Transient >= quasi-static free >= quasi-static clamped, per sample."""
    for rid in table:
        for source in ("reflected", "constant"):
            tr, free, cl = (samples[(rid, m, source)] for m in MODES)
            require(all(a >= b >= c for a, b, c in zip(tr, free, cl)),
                    f"{rid}/{source}: transient >= qs-free >= qs-clamped "
                    f"violated")


def sweep_boxstats(samples, stats, table: dict) -> None:
    """fig_boxstats.json means, medians and constants equal the CSV's."""
    for rid in table:
        entry = stats["regions"][rid]
        for mode in MODES:
            const = samples[(rid, mode, "constant")][0]
            require(entry[f"{mode}|constant"]["value"] == const,
                    f"{rid}/{mode}: constant value differs from the CSV")
            refl = samples[(rid, mode, "reflected")]
            box = entry[f"{mode}|reflected"]
            require(box["n"] == len(refl), f"{rid}/{mode}: boxstats n")
            mean = math.fsum(refl) / len(refl)
            ordered = sorted(refl)
            half = len(ordered) // 2
            median = (ordered[half] if len(ordered) % 2
                      else 0.5 * (ordered[half - 1] + ordered[half]))
            require(close(box["mean"], mean, 1e-12),
                    f"{rid}/{mode}: boxstats mean {box['mean']} != CSV {mean}")
            require(close(box["median"], median, 1e-12),
                    f"{rid}/{mode}: boxstats median {box['median']} != CSV "
                    f"{median}")


def check_ik_points(arm: Arm, solved: list[tuple[list, list]],
                    tol: float = 1e-4) -> None:
    """Traced runs: every converged IK target lies inside the chain-length
    bound, and the arm YAML's own kinematics put the tool on it."""
    for target, q in solved:
        require(not arm.outside_reach(target),
                f"IK converged at {target}, outside the chain-length bound")
        reached = arm.tool_position(q)
        require(math.dist(reached, target) < tol,
                f"IK result reaches {reached}, not {target}")


# ---------------------------------------------------------------- simulate

def check_simulate(out: Path, cmd: dict) -> None:
    m_r, m_h, k, v0 = cmd["mr"], cmd["mh"], cmd["k"], cmd["v0"]
    outcome = json.loads((out / "outcome.json").read_text(encoding="utf-8"))
    clamped = math.isinf(m_h)
    mu = m_r if clamped else m_r * m_h / (m_r + m_h)
    dx = v0 * math.sqrt(mu / k)
    want = {"dx_max": dx, "f_peak": k * dx,
            "t_star": 0.5 * math.pi * math.sqrt(mu / k)}
    for key, value in want.items():
        require(close(outcome[key], value, 5e-3),
                f"simulate: {key} {outcome[key]} vs closed form {value}")
    v_star = 0.0 if clamped else m_r * v0 / (m_r + m_h)
    require(close(outcome["v_star"], v_star, 5e-3, 1e-12),
            f"simulate: v_star {outcome['v_star']} vs {v_star}")
    require(outcome["energy_drift_rel"] < 1e-6,
            f"simulate: reported energy drift {outcome['energy_drift_rel']}")

    with open(out / "trajectory.csv", encoding="utf-8") as fh:
        require(fh.readline().strip() == "t,v_r,v_h,dx",
                "trajectory.csv: bad header")
        energy = []
        for line in fh:
            _, v_r, v_h, d = (float(c) for c in line.split(","))
            e = 0.5 * m_r * v_r * v_r + 0.5 * k * d * d
            if not clamped:
                e += 0.5 * m_h * v_h * v_h
            energy.append(e)
    drift = max(abs(e - energy[0]) for e in energy) / energy[0]
    require(drift < 1e-6, f"simulate: trajectory energy drift {drift}")
    check_manifest(out, ["trajectory.csv", "outcome.json", "trajectory.svg"])


# ------------------------------------------------------------------ limits

def check_limits(out: Path, cmd: dict, table: dict, arm: Arm) -> None:
    if cmd["format"] == "json":
        name = "limits.json"
        rows = json.loads((out / name).read_text(encoding="utf-8"))
    else:
        name = "limits.csv"
        with open(out / name, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    mass = cmd["mass"] if cmd["mass"] is not None \
        else arm.constant_mass(cmd["payload"])
    area = cmd["area"]
    regions = list(table) if cmd["region"] == "all" else [cmd["region"]]
    modes = MODES if cmd["mode"] == "all" else (cmd["mode"],)
    expected = [(r, m) for r in regions for m in modes
                if m == "quasi_static_clamped" or not math.isinf(table[r]["m_h"])]
    require([(r["region"], r["mode"]) for r in rows] == expected,
            f"limits: rows {len(rows)} do not cover {len(expected)} "
            f"region/mode pairs in order")
    for row in rows:
        params = table[row["region"]]
        mode = row["mode"]
        u = elastic_budget(params, mode, area)
        v0 = speed_limit(params, mode, mass, area)
        want = {"robot_mass_kg": mass, "contact_area_cm2": area,
                "u_s_max_J": u, "v0_max_mps": v0,
                "k0_max_J": 0.5 * mass * v0 * v0}
        for key, value in want.items():
            require(close(float(row[key]), value, 1e-12),
                    f"limits {row['region']}/{mode}: {key} {row[key]} != "
                    f"{value}")
        binding = "pressure" if area * params["p"] < params["f"] else "force"
        require(row["binding_criterion"] == binding,
                f"limits {row['region']}/{mode}: binding criterion")
    check_manifest(out, [name])


# ------------------------------------------------------------------ filter

def filter_expectations(scenario: dict, table: dict, arm: Arm) -> dict:
    row = table[scenario["region"]]
    mode = scenario["mode"]
    area = scenario["contact_area"]
    if scenario["robot_mass"] == "constant":
        mass = arm.constant_mass(scenario["payload"])
    else:
        mass = float(scenario["robot_mass"])
    v0 = speed_limit(row, mode, mass, area)
    budget = scenario["budget"]
    if budget == "k0_max":
        budget = 0.5 * mass * v0 * v0
    elif budget == "u_s_max":
        budget = elastic_budget(row, mode, area)
    return {"v0_max": v0, "budget": float(budget),
            "plant_mass": scenario.get("plant_mass", mass)}


def check_filter(out: Path, scenario: dict, table: dict, arm: Arm) -> None:
    want = filter_expectations(scenario, table, arm)
    v0_max, budget, plant_mass = want["v0_max"], want["budget"], want["plant_mass"]
    summary = json.loads((out / "filter_summary.json").read_text(encoding="utf-8"))
    require(close(summary["v0_max_mps"], v0_max, 1e-12),
            f"filter: v0_max {summary['v0_max_mps']} != {v0_max}")
    require(close(summary["budget_J"], budget, 1e-12),
            f"filter: budget {summary['budget_J']} != {budget}")

    tol = 1e-9 * budget
    with open(out / "filter_log.csv", encoding="utf-8") as fh:
        require(fh.readline().strip()
                == "t,v_nominal,v_commanded,ke,tank_energy,injected_cum",
                "filter_log.csv: bad header")
        n = 0
        peak_ke = 0.0
        for line in fh:
            _, _, v_cmd, ke, tank, injected = (float(c) for c in line.split(","))
            n += 1
            peak_ke = max(peak_ke, ke)
            require(tank >= 0.0, f"filter: tank energy {tank} < 0")
            require(ke <= injected + tol,
                    f"filter: kinetic energy {ke} > injected {injected}")
            require(ke <= budget - tank + tol,
                    f"filter: kinetic energy {ke} > budget - tank")
            if not scenario["recycling"]:
                require(injected <= budget + tol,
                        f"filter: injected {injected} > budget {budget}")
            if scenario["velocity_filter"]:
                require(abs(v_cmd) <= v0_max * (1 + 1e-12),
                        f"filter: command {v_cmd} above v0_max {v0_max}")
    steps = int(round(scenario["duration"] / scenario["period"])) + 1
    require(n == steps, f"filter: {n} log rows, expected {steps}")
    peak_speed = math.sqrt(2.0 * peak_ke / plant_mass)
    require(close(summary["peak_ke_J"], peak_ke, 1e-12),
            "filter: summary peak_ke_J differs from the log")
    require(close(summary["peak_speed_mps"], peak_speed, 1e-9),
            f"filter: summary peak speed {summary['peak_speed_mps']} vs "
            f"{peak_speed} from the log")
    require(peak_ke <= summary["injected_total_J"] + tol,
            "filter: peak kinetic energy above injected energy")
    if not scenario["recycling"]:
        require(summary["injected_total_J"] <= budget + tol,
                "filter: injected energy above the budget")
    if scenario["velocity_filter"]:
        require(peak_speed <= v0_max * (1 + 1e-9),
                f"filter: peak speed {peak_speed} above v0_max {v0_max}")
    check_manifest(out, ["filter_log.csv", "filter_log.svg",
                         "filter_summary.json"])
