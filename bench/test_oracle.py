"""Each output check in oracle.py fails on a corrupted artefact.

    python3 -m pytest -q bench/test_oracle.py

The fixture runs one small command of each kind through pflsafe.cli.main
into bench/out/test/; each test copies the artefacts, corrupts one value
and expects the check that guards it to raise CheckFailed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import pytest
import yaml

BENCH = Path(__file__).resolve().parent
DATA = BENCH.parent / "src" / "pflsafe" / "data"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from pflsafe import cli  # noqa: E402

WORK = BENCH / "out" / "test"
TABLE = oracle.read_table(DATA / "body_regions.csv")
ARM = oracle.Arm(DATA / "panda.yaml")


def _run(argv: list[str]) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    return out.getvalue()


def _sweep_job(name: str, lo, hi, spacing: float, all_reachable: bool) -> dict:
    config = {"box_min": lo, "box_max": hi, "grid_spacing": spacing,
              "n_directions": 4, "direction_style": "horizontal",
              "contact_area": 1.0, "payload": 0.0}
    path = WORK / f"{name}.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    axes = [[a + spacing * i for i in range(int(round((b - a) / spacing)) + 1)]
            for a, b in zip(lo, hi)]
    job = dict(config, all_reachable=all_reachable,
               points=[(x, y, z) for z in axes[2] for y in axes[1] for x in axes[0]])
    out = WORK / name
    job["stdout"] = _run(["sweep", "--config", str(path), "--out", str(out)])
    job["out"] = out
    return job


@pytest.fixture(scope="module")
def runs():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    scenario = {"region": "chest", "mode": "transient", "contact_area": 1.0,
                "payload": 0.0, "robot_mass": "constant", "budget": "k0_max",
                "duration": 0.5, "period": 1e-3, "recycling": False,
                "velocity_filter": True}
    # a budget far above k0_max: only the velocity filter bounds the speed
    roomy = dict(scenario, budget=10.0)
    for name, spec in (("filter", scenario), ("roomy", roomy)):
        (WORK / f"{name}.yaml").write_text(yaml.safe_dump(spec), encoding="utf-8")
        _run(["filter", "--scenario", str(WORK / f"{name}.yaml"),
              "--out", str(WORK / name)])
    simulate = {"mr": 5.5, "mh": 40.0, "k": 25000.0, "v0": 0.3}
    _run(["simulate", "--mr", "5.5", "--mh", "40", "--k", "25000", "--v0", "0.3",
          "--out", str(WORK / "simulate")])
    limits = {"region": "all", "mode": "all", "format": "csv", "area": 0.5,
              "mass": None, "payload": 0.0}
    _run(["limits", "--area", "0.5", "--out", str(WORK / "limits")])
    return {
        # from a reachable point out past the chain-length bound
        "edge": _sweep_job("edge", [0.25, 0.15, 0.25], [1.05, 0.15, 0.25], 0.2,
                           False),
        "inner": _sweep_job("inner", [0.25, 0.15, 0.25], [0.3, 0.15, 0.25], 0.05,
                            True),
        "filter": scenario, "roomy": roomy, "simulate": simulate,
        "limits": limits,
    }


def _copy(name: str, tag: str) -> Path:
    dest = WORK / f"{name}-{tag}"
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(WORK / name, dest)
    return dest


def _edit_csv(path: Path, row: int, column: str, fn) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    idx = header.index(column)
    cells[idx] = repr(fn(float(cells[idx])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_json(path: Path, fn) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    fn(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _sweep_parts(job: dict):
    samples = oracle.read_sweep_csv(job["out"] / "sweep_result.csv")
    stats = json.loads((job["out"] / "fig_boxstats.json").read_text(encoding="utf-8"))
    return samples, stats


# ------------------------------------------------------------------ pristine

def test_pristine_artefacts_pass(runs):
    for name in ("edge", "inner"):
        job = runs[name]
        oracle.check_sweep(job["out"], job, TABLE, ARM, job["stdout"])
    assert 0 < json.loads((runs["edge"]["out"] / "fig_boxstats.json").read_text())[
        "counts"]["reachable"] < len(runs["edge"]["points"])
    oracle.check_simulate(WORK / "simulate", runs["simulate"])
    oracle.check_limits(WORK / "limits", runs["limits"], TABLE, ARM)
    oracle.check_filter(WORK / "filter", runs["filter"], TABLE, ARM)


# --------------------------------------------------------------------- sweep

def test_sample_count(runs):
    samples, stats = _sweep_parts(runs["edge"])
    samples[("chest", "transient", "reflected")].pop()
    with pytest.raises(CheckFailed, match="samples, expected"):
        oracle.sweep_counts(samples, stats, runs["edge"], TABLE, ARM,
                            runs["edge"]["stdout"])


def test_reachable_outside_the_bound(runs):
    job = runs["edge"]
    samples, stats = _sweep_parts(job)
    n = len(job["points"])
    before = stats["counts"]["reachable"]
    stats["counts"].update(reachable=n, unreachable=0)
    stdout = job["stdout"].replace(f"reachable {before},", f"reachable {n},")
    with pytest.raises(CheckFailed, match="chain-length bound"):
        oracle.sweep_counts(samples, stats, job, TABLE, ARM, stdout)


def test_not_all_reachable(runs):
    job = runs["inner"]
    samples, stats = _sweep_parts(job)
    n = len(job["points"])
    stats["counts"].update(reachable=n - 1, unreachable=1)
    stdout = job["stdout"].replace(f"reachable {n},", f"reachable {n - 1},")
    with pytest.raises(CheckFailed, match="points reachable"):
        oracle.sweep_counts(samples, stats, job, TABLE, ARM, stdout)


def test_stdout_counts(runs):
    samples, stats = _sweep_parts(runs["inner"])
    with pytest.raises(CheckFailed, match="stdout counts"):
        oracle.sweep_counts(samples, stats, runs["inner"], TABLE, ARM,
                            "grid points 2, reachable 1, near-singular 0")


def test_region_reflected_masses_agree(runs):
    samples, stats = _sweep_parts(runs["edge"])
    samples[("chest", "transient", "reflected")][0] *= 1.001
    with pytest.raises(CheckFailed, match="implies reflected mass"):
        oracle.sweep_masses(samples, stats, runs["edge"], TABLE, ARM)


def test_reflected_mass_positive(runs):
    samples, stats = _sweep_parts(runs["edge"])
    first = next(iter(TABLE))
    key = (first, "transient", "reflected")
    samples[key] = [v * 0.01 for v in samples[key]]
    with pytest.raises(CheckFailed, match="not positive"):
        oracle.sweep_masses(samples, stats, runs["edge"], TABLE, ARM)


def test_constant_mass_sample(runs):
    samples, stats = _sweep_parts(runs["edge"])
    samples[("neck", "quasi_static_free", "constant")][0] *= 1.01
    with pytest.raises(CheckFailed, match="constant sample implies mass"):
        oracle.sweep_masses(samples, stats, runs["edge"], TABLE, ARM)


def test_constant_mass_reported(runs):
    samples, stats = _sweep_parts(runs["edge"])
    stats["constant_effective_mass_kg"] += 0.01
    with pytest.raises(CheckFailed, match="differs from YAML"):
        oracle.sweep_masses(samples, stats, runs["edge"], TABLE, ARM)


def test_mode_order(runs):
    samples, _ = _sweep_parts(runs["edge"])
    free = samples[("chest", "quasi_static_free", "reflected")]
    samples[("chest", "quasi_static_clamped", "reflected")][0] = free[0] * 1.1
    with pytest.raises(CheckFailed, match="transient >= qs-free >= qs-clamped"):
        oracle.sweep_order(samples, TABLE)


@pytest.mark.parametrize("field", ["mean", "median"])
def test_boxstats_equal_csv(runs, field):
    samples, stats = _sweep_parts(runs["edge"])
    stats["regions"]["abdomen"]["transient|reflected"][field] *= 1.0001
    with pytest.raises(CheckFailed, match=f"boxstats {field}"):
        oracle.sweep_boxstats(samples, stats, TABLE)


def test_manifest_digest(runs):
    out = _copy("edge", "manifest")
    _edit_json(out / "run_manifest.json",
               lambda m: m["inputs"]["body_table"].update(sha256="0" * 64))
    with pytest.raises(CheckFailed, match="sha256"):
        oracle.check_manifest(out, ["sweep_result.csv", "scaling_report.csv",
                                    "fig_boxstats.json", "sweep_boxplot.svg"])


def test_ik_points():
    q = [0.0, -0.3, 0.0, -2.2, 0.0, 2.0, 0.8]
    reached = list(ARM.tool_position(q))
    oracle.check_ik_points(ARM, [(reached, q)])
    with pytest.raises(CheckFailed, match="reaches"):
        oracle.check_ik_points(ARM, [([reached[0] + 1e-3] + reached[1:], q)])
    with pytest.raises(CheckFailed, match="outside the chain-length bound"):
        oracle.check_ik_points(ARM, [([1.2, 0.0, 0.3], q)])


# ------------------------------------------------------------------ simulate

@pytest.mark.parametrize("key", ["f_peak", "dx_max", "t_star", "v_star"])
def test_simulate_peaks(runs, key):
    out = _copy("simulate", key)
    _edit_json(out / "outcome.json", lambda o: o.update({key: o[key] * 1.01}))
    with pytest.raises(CheckFailed, match=key):
        oracle.check_simulate(out, runs["simulate"])


def test_simulate_reported_drift(runs):
    out = _copy("simulate", "drift")
    _edit_json(out / "outcome.json", lambda o: o.update(energy_drift_rel=1e-3))
    with pytest.raises(CheckFailed, match="reported energy drift"):
        oracle.check_simulate(out, runs["simulate"])


def test_simulate_trajectory_drift(runs):
    out = _copy("simulate", "trajectory")
    _edit_csv(out / "trajectory.csv", 40, "v_r", lambda v: v * 1.001)
    with pytest.raises(CheckFailed, match="trajectory energy drift"):
        oracle.check_simulate(out, runs["simulate"])


# -------------------------------------------------------------------- limits

@pytest.mark.parametrize("column", ["v0_max_mps", "u_s_max_J", "k0_max_J"])
def test_limits_formula(runs, column):
    out = _copy("limits", column)
    _edit_csv(out / "limits.csv", 5, column, lambda v: v * 1.001)
    with pytest.raises(CheckFailed, match=column):
        oracle.check_limits(out, runs["limits"], TABLE, ARM)


def test_limits_rows(runs):
    out = _copy("limits", "rows")
    lines = (out / "limits.csv").read_text(encoding="utf-8").splitlines()
    (out / "limits.csv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(CheckFailed, match="do not cover"):
        oracle.check_limits(out, runs["limits"], TABLE, ARM)


def test_limits_binding(runs):
    out = _copy("limits", "binding")
    text = (out / "limits.csv").read_text(encoding="utf-8")
    flipped = text.replace(",pressure,", ",PRESSURE,").replace(",force,", ",pressure,")
    (out / "limits.csv").write_text(flipped.replace(",PRESSURE,", ",force,"),
                                    encoding="utf-8")
    with pytest.raises(CheckFailed, match="binding criterion"):
        oracle.check_limits(out, runs["limits"], TABLE, ARM)


# -------------------------------------------------------------------- filter

def _filter_case(runs, tag, column, fn, match, row=100):
    out = _copy("filter", tag)
    _edit_csv(out / "filter_log.csv", row, column, fn)
    with pytest.raises(CheckFailed, match=match):
        oracle.check_filter(out, runs["filter"], TABLE, ARM)


def test_filter_tank_nonnegative(runs):
    _filter_case(runs, "tank", "tank_energy", lambda v: -1e-6, "tank energy")


def test_filter_ke_below_injected(runs):
    _filter_case(runs, "ke", "ke", lambda v: v * 1.5 + 1e-3, "above injected|> injected")


def test_filter_injected_below_budget(runs):
    budget = oracle.filter_expectations(runs["filter"], TABLE, ARM)["budget"]
    _filter_case(runs, "injected", "injected_cum", lambda v: budget * 1.01,
                 "injected .* > budget")


def test_filter_command_below_limit(runs):
    v0 = oracle.filter_expectations(runs["filter"], TABLE, ARM)["v0_max"]
    _filter_case(runs, "command", "v_commanded", lambda v: v0 * 1.01,
                 "above v0_max")


def test_filter_peak_speed(runs):
    out = _copy("filter", "peak")
    _edit_json(out / "filter_summary.json",
               lambda s: s.update(peak_speed_mps=s["peak_speed_mps"] * 1.01))
    with pytest.raises(CheckFailed, match="peak speed"):
        oracle.check_filter(out, runs["filter"], TABLE, ARM)


def test_filter_peak_speed_above_limit(runs):
    oracle.check_filter(WORK / "roomy", runs["roomy"], TABLE, ARM)
    out = _copy("roomy", "overspeed")
    want = oracle.filter_expectations(runs["roomy"], TABLE, ARM)
    ke = 0.5 * want["plant_mass"] * (1.01 * want["v0_max"]) ** 2
    for column in ("ke", "injected_cum"):
        _edit_csv(out / "filter_log.csv", 400, column, lambda v: ke)
    _edit_csv(out / "filter_log.csv", 400, "tank_energy",
              lambda v: want["budget"] - ke)
    _edit_json(out / "filter_summary.json", lambda s: s.update(
        peak_ke_J=ke, peak_speed_mps=math.sqrt(2.0 * ke / want["plant_mass"]),
        injected_total_J=ke))
    with pytest.raises(CheckFailed, match="peak speed .* above v0_max"):
        oracle.check_filter(out, runs["roomy"], TABLE, ARM)


def test_filter_budget(runs):
    out = _copy("filter", "budget")
    _edit_json(out / "filter_summary.json",
               lambda s: s.update(budget_J=s["budget_J"] * 1.01))
    with pytest.raises(CheckFailed, match="budget"):
        oracle.check_filter(out, runs["filter"], TABLE, ARM)
