"""Command-line interface: artefacts, manifests, exit codes."""
import copy
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from pflsafe import assets, body, cli, dynamics, sweep
from pflsafe.body import ContactMode
from pflsafe.cli import FilterScenario, _build_parser, main
from pflsafe.collision import CollisionScenario, peak_contact_state, simulate
from pflsafe.dynamics import MODEL_KEYS
from pflsafe.limits import compute_limit
from pflsafe.schema import CSV_BLOCK_ROWS
from test_body import table_text
from test_sweep import REACH_BOX


def run(*argv):
    return main([str(a) for a in argv])


def test_simulate_artifacts(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--mr", 3, "--mh", 1, "--k", 5, "--v0", 1,
               "--out", out) == 0
    assert "peak force" in capsys.readouterr().out

    peak = peak_contact_state(CollisionScenario(m_r=3, m_h=1, k=5, v0=1))
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["v_star"] == pytest.approx(0.75, rel=1e-6)
    assert outcome["f_peak"] == pytest.approx(peak.f_peak, rel=1e-6)
    assert outcome["dx_max"] == pytest.approx(peak.dx_max, rel=1e-6)
    assert outcome["energy_drift_rel"] < 1e-9

    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,v_r,v_h,dx"
    first = [float(c) for c in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 0.0]
    assert all(len(line.split(",")) == 4 for line in lines[1:])

    svg = (out / "trajectory.svg").read_text()
    assert svg.startswith("<?xml") and "<polyline" in svg

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["tool"] == "pflsafe"
    assert manifest["subcommand"] == "simulate"
    assert manifest["config"]["m_r"] == 3.0
    assert manifest["outputs"] == ["trajectory.csv", "outcome.json",
                                   "trajectory.svg"]


def test_simulate_clamped_mass(tmp_path):
    out = tmp_path / "sim"
    assert run("simulate", "--mr", 3, "--mh", "inf", "--k", 5, "--v0", 1,
               "--out", out) == 0
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["v_star"] == pytest.approx(0.0, abs=1e-9)
    peak = peak_contact_state(
        CollisionScenario(m_r=3, m_h=math.inf, k=5, v0=1))
    assert outcome["f_peak"] == pytest.approx(peak.f_peak, rel=1e-6)


#: a column that repeats values, with both zeros, the least subnormal and a
#: near-overflow value: one ``repr`` per bit pattern must keep them apart.
#: It holds no -1e308, because a chart range of 2e308 overflows.
EDGE_COLUMN = np.array([-0.0, 0.0, 5e-324, 1e308, 0.25, -0.0, 0.25, 0.0,
                        -5e-324, 0.1, 0.1])


@pytest.mark.parametrize("m_h, edge", [(1.0, False), (math.inf, False),
                                       (math.inf, True)],
                         ids=["free", "clamped", "edge-column"])
def test_trajectory_csv_matches_the_row_by_row_writer(tmp_path, monkeypatch,
                                                      m_h, edge):
    traj, outcome = simulate(CollisionScenario(m_r=3.0, m_h=m_h, k=5.0, v0=1.0))
    if edge:  # clamped: the energy check reads no v_h
        traj = dataclasses.replace(
            traj, v_h=np.resize(EDGE_COLUMN, len(traj.t)))
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: (traj, outcome))
    out = tmp_path / "sim"
    assert run("simulate", "--mr", 3, "--mh", m_h, "--k", 5, "--v0", 1,
               "--out", out) == 0
    lines = ["t,v_r,v_h,dx\n"]
    for i in range(len(traj.t)):
        lines.append(f"{float(traj.t[i])!r},{float(traj.v_r[i])!r},"
                     f"{float(traj.v_h[i])!r},{float(traj.dx[i])!r}\n")
    data = (out / "trajectory.csv").read_bytes()
    assert data == "".join(lines).encode("utf-8")
    assert len(lines) > CSV_BLOCK_ROWS  # more than one block of rows
    if edge:
        assert b",-0.0," in data and b",5e-324," in data


def test_simulate_exit_codes(tmp_path, capsys):
    out = tmp_path / "x"
    # invalid scenario -> input error
    assert run("simulate", "--mr", 3, "--mh", 1, "--k", -5, "--v0", 1,
               "--out", out) == 3
    assert "error:" in capsys.readouterr().err
    # the step is derived from the contact period: --dt is a usage error
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--mr", 3, "--mh", 1, "--k", 5, "--v0", 1,
            "--dt", 0.5, "--out", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --dt 0.5" in capsys.readouterr().err
    assert not out.exists()


def test_limits_explicit_mass(tmp_path, body_table):
    out = tmp_path / "lim"
    assert run("limits", "--region", "face", "--mode", "transient",
               "--mass", 5.0, "--out", out) == 0
    lines = (out / "limits.csv").read_text().splitlines()
    assert lines[0].startswith("region,mode,")
    assert len(lines) == 2
    cells = dict(zip(lines[0].split(","), lines[1].split(",")))
    expected = compute_limit(body_table, "face", ContactMode.TRANSIENT, 5.0)
    assert cells["region"] == "face"
    assert float(cells["v0_max_mps"]) == pytest.approx(expected.v0_max)
    assert float(cells["u_s_max_J"]) == pytest.approx(expected.u_s_max)
    assert cells["binding_criterion"] == expected.binding_criterion

    manifest = json.loads((out / "run_manifest.json").read_text())
    digest = hashlib.sha256(assets.body_table_path().read_bytes()).hexdigest()
    assert manifest["inputs"]["body_table"]["sha256"] == digest


def test_limits_all_regions_constant_mass(tmp_path):
    out = tmp_path / "lim"
    assert run("limits", "--format", "json", "--out", out) == 0
    rows = json.loads((out / "limits.json").read_text())
    assert len(rows) == 36  # 12 regions x 3 modes, none clamped-only
    assert {row["mode"] for row in rows} == {
        "transient", "quasi_static_free", "quasi_static_clamped"}
    assert rows[0]["robot_mass_kg"] == pytest.approx(5.545724, abs=1e-6)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "robot" in manifest["inputs"]
    assert manifest["config"]["mass_source"].startswith("constant")


def test_the_parser_is_built_once_and_keeps_no_state(tmp_path):
    assert _build_parser() is _build_parser()
    explicit, constant = tmp_path / "explicit", tmp_path / "constant"
    assert run("limits", "--mass", 2.0, "--format", "json",
               "--out", explicit) == 0
    assert run("limits", "--format", "json", "--out", constant) == 0
    rows = json.loads((explicit / "limits.json").read_text())
    assert {row["robot_mass_kg"] for row in rows} == {2.0}
    rows = json.loads((constant / "limits.json").read_text())
    assert rows[0]["robot_mass_kg"] == pytest.approx(5.545724, abs=1e-6)
    manifest = json.loads((constant / "run_manifest.json").read_text())
    assert manifest["config"]["mass_source"].startswith("constant")


def test_limits_mode_aliases_agree(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("limits", "--region", "chest", "--mode", "qs-clamped",
               "--mass", 4.0, "--out", out_a) == 0
    assert run("limits", "--region", "chest", "--mode",
               "quasi_static_clamped", "--mass", 4.0, "--out", out_b) == 0
    assert (out_a / "limits.csv").read_text() == \
        (out_b / "limits.csv").read_text()


def test_limits_exit_codes(tmp_path, capsys):
    out = tmp_path / "x"
    assert run("limits", "--region", "clavicle", "--mass", 5,
               "--out", out) == 3
    assert "valid regions" in capsys.readouterr().err
    assert run("limits", "--mode", "warp", "--mass", 5, "--out", out) == 3
    assert run("limits", "--body-table", tmp_path / "missing.csv",
               "--mass", 5, "--out", out) == 3


def test_an_internal_key_error_is_not_bad_input(tmp_path, monkeypatch):
    # exit 3 means a bad input; a bug must surface as a traceback
    def buggy_limit(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr("pflsafe.cli.compute_limit", buggy_limit)
    with pytest.raises(KeyError, match="bug"):
        main(["limits", "--mass", "5", "--out", str(tmp_path / "o")])


def test_sweep_with_config(tmp_path):
    config = tmp_path / "sweep.yaml"
    config.write_text(yaml.safe_dump({
        "box_min": [0.35, -0.05, 0.40], "box_max": [0.45, 0.05, 0.50],
        "grid_spacing": 0.05, "n_directions": 4, "n_workers": 1}))
    out = tmp_path / "sweep"
    assert run("sweep", "--config", config, "--out", out) == 0
    for name in ("sweep_result.csv", "scaling_report.csv",
                 "fig_boxstats.json", "sweep_boxplot.svg",
                 "run_manifest.json"):
        assert (out / name).exists()
    stats = json.loads((out / "fig_boxstats.json").read_text())
    assert stats["counts"]["grid_points"] == 27
    assert stats["counts"]["reachable"] == 27
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["n_directions"] == 4
    assert manifest["config"]["direction_style"] == "horizontal"
    assert set(manifest["inputs"]) == {"body_table", "robot", "config"}


def test_the_sweep_manifest_counts_points_by_ik_outcome(tmp_path,
                                                        monkeypatch):
    # the a07 box of test_sweep's BOUND_BOX: 2 points converge and the
    # reach proof rejects the other 14
    outcomes = []
    real_ik = sweep.inverse_kinematics

    def recording_ik(*args, **kwargs):
        result = real_ik(*args, **kwargs)
        outcomes.append((result.success, result.iterations))
        return result

    monkeypatch.setattr(sweep, "inverse_kinematics", recording_ik)
    config = tmp_path / "sweep.yaml"
    config.write_text(yaml.safe_dump({
        "box_min": [0.6, 0.5, 0.15], "box_max": [0.7, 0.8, 0.25],
        "grid_spacing": 0.1, "n_directions": 20}))
    out = tmp_path / "sweep"
    assert run("sweep", "--config", config, "--out", out) == 0
    counts = json.loads((out / "run_manifest.json").read_text())["counts"]
    assert counts == {
        "converged": sum(ok for ok, _ in outcomes),
        "rejected": sum(not ok and n == 0 for ok, n in outcomes),
        "budget_spent": sum(not ok and n == 200 for ok, n in outcomes),
        "ik_iterations": sum(n for _, n in outcomes)}
    assert (len(outcomes), counts["converged"], counts["rejected"]) == (
        16, 2, 14)
    # the data artefacts keep their keys: the counts live in the manifest
    stats = json.loads((out / "fig_boxstats.json").read_text())
    assert set(stats["counts"]) == {"grid_points", "reachable",
                                    "unreachable", "near_singular",
                                    "constrained_directions"}


def test_sweep_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"grid": 0.1}))
    assert run("sweep", "--config", bad, "--out", tmp_path / "o") == 3
    assert "unknown keys" in capsys.readouterr().err

    far = tmp_path / "far.yaml"
    far.write_text(yaml.safe_dump({
        "box_min": [3.0, 3.0, 3.0], "box_max": [3.1, 3.1, 3.1],
        "grid_spacing": 0.1, "n_directions": 2}))
    assert run("sweep", "--config", far, "--out", tmp_path / "o") == 4
    assert "reachable" in capsys.readouterr().err


def test_filter_scenario(tmp_path, body_table):
    scenario = tmp_path / "scn.yaml"
    scenario.write_text(yaml.safe_dump({
        "region": "face", "mode": "qs-clamped", "robot_mass": "constant",
        "budget": "u_s_max", "duration": 0.5, "velocity_filter": False,
        "nominal_speed": 3.0}))
    out = tmp_path / "filt"
    assert run("filter", "--scenario", scenario, "--out", out) == 0

    summary = json.loads((out / "filter_summary.json").read_text())
    limit = compute_limit(body_table, "face", ContactMode.QUASI_STATIC_CLAMPED,
                          summary["robot_mass_kg"])
    # the tank budget equals the elastic limit, so even unfiltered the
    # plant cannot exceed the clamped speed limit
    assert summary["budget_J"] == pytest.approx(limit.u_s_max)
    assert summary["peak_speed_mps"] <= limit.v0_max * (1 + 1e-9)
    assert summary["peak_speed_mps"] == pytest.approx(limit.v0_max, rel=1e-3)
    assert summary["peak_ke_J"] <= summary["budget_J"] * (1 + 1e-9)
    assert summary["injected_total_J"] <= summary["budget_J"] * (1 + 1e-9)

    lines = (out / "filter_log.csv").read_text().splitlines()
    assert lines[0] == "t,v_nominal,v_commanded,ke,tank_energy,injected_cum"
    assert (out / "filter_log.svg").read_text().startswith("<?xml")


def test_filter_velocity_filter_on(tmp_path):
    scenario = tmp_path / "scn.yaml"
    scenario.write_text(yaml.safe_dump({
        "region": "chest", "mode": "transient", "robot_mass": 4.0,
        "plant_mass": 4.0, "budget": 100.0, "duration": 0.5}))
    out = tmp_path / "filt"
    assert run("filter", "--scenario", scenario, "--out", out) == 0
    summary = json.loads((out / "filter_summary.json").read_text())
    assert summary["peak_speed_mps"] <= summary["v0_max_mps"] * (1 + 1e-9)
    assert summary["peak_speed_mps"] == pytest.approx(
        summary["v0_max_mps"], rel=1e-3)


def test_filter_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"region": "face", "speed": 9.0}))
    assert run("filter", "--scenario", bad, "--out", tmp_path / "o") == 3
    assert "unknown keys" in capsys.readouterr().err

    not_mapping = tmp_path / "list.yaml"
    not_mapping.write_text("- a\n- b\n")
    assert run("filter", "--scenario", not_mapping,
               "--out", tmp_path / "o") == 3
    assert run("filter", "--scenario", tmp_path / "nope.yaml",
               "--out", tmp_path / "o") == 3


def test_non_finite_power_names_the_commanded_speed_and_the_period(
        tmp_path, capsys):
    # unfiltered, the nominal speed is the command; the gain is the default
    scenario = tmp_path / "scn.yaml"
    scenario.write_text(yaml.safe_dump({
        "region": "face", "mode": "transient", "robot_mass": 4.0,
        "nominal_speed": 1.0e+160, "velocity_filter": False,
        "period": 1.0e-10, "duration": 1.0e-9}))
    assert run("filter", "--scenario", scenario, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert ("the commanded speed 1e+160 m/s (plant at 0.0 m/s, gain 80.0 "
            "N s/m) over a period of 1e-10 s asks for non-finite power at "
            "t = 0.0 s") in err


@pytest.mark.parametrize("key, value, y_range", [
    ("budget", 1.75e+308, "[0.0, inf]"),
    ("nominal_speed", 1.75e+308, "[0.0, inf]"),
    ("nominal_speed", -1.0e+308, "[-1e+308, inf]"),
])
def test_a_chart_past_the_float_range_exits_3_before_the_loop(
        tmp_path, capsys, monkeypatch, key, value, y_range):
    # the chart tops the full tank and the nominal speed with 5 % headroom
    scenario = tmp_path / "scn.yaml"
    base = {"region": "face", "mode": "transient", "robot_mass": 4.0,
            "budget": 1.0e+308, "duration": 0.01}
    scenario.write_text(yaml.safe_dump(dict(base, budget=1.7e+308)))
    assert run("filter", "--scenario", scenario, "--out", tmp_path / "o") == 0

    def no_loop(*args, **kwargs):
        raise AssertionError("the loop ran before the chart check")

    monkeypatch.setattr(cli, "simulate_loop", no_loop)
    scenario.write_text(yaml.safe_dump(dict(base, **{key: value})))
    assert run("filter", "--scenario", scenario, "--out", tmp_path / "p") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: filter scenario: budget = ")
    assert f"{key} = {value!r} " in err and f"y range {y_range} " in err
    assert "Traceback" not in err and not (tmp_path / "p").exists()


SWEEP_BOX = {"box_min": [0.35, -0.05, 0.40], "box_max": [0.45, 0.05, 0.50],
             "grid_spacing": 0.05, "n_directions": 2}
FILTER_SCENARIO = {"region": "chest", "mode": "transient", "robot_mass": 4.0,
                   "duration": 0.01}
#: a contact area at which a force limit of 1e200 N binds, so that the
#: elastic energy budget F^2 / 2k overflows to inf
HUGE_AREA = 1.0e+300
#: a robot mass at which the speed limit on a Face of stiffness 2.1e-307
#: N/mm overflows, although its budget F^2 / 2k is finite
TINY_MASS = 1.0e-3
#: a Face stiffness [N/mm] at which the budget F^2 / 2k is finite but twice
#: it is not, so that every speed limit on the Face overflows
OVERFLOW_K = 2.1e-308

#: the whole error line of each sweep config contact area, and of the Face
#: stiffness ``OVERFLOW_K``, in ``test_malformed_input_exits_3``
SWEEP_ERRORS = {
    0: "sweep config: contact_area must be > 0, got 0.0",
    1.0e-300:
        "Skull/Forehead transient: contact_area = 1e-300 cm^2 leaves an "
        "elastic energy budget F^2 / 2k of 0.0 J; it must be > 0",
    HUGE_AREA:
        "Chest transient: f_max_qs_N = 1e+200 at contact_area = 1e+300 cm^2 "
        "gives an elastic energy budget F^2 / 2k of inf J; it must be finite",
    OVERFLOW_K:
        "Face transient, robot_mass = 5.545724 kg: v0_max: u_s_max = "
        "1.005952380952381e+308 J, m_r = 5.545724 kg and m_h = 4.4 kg give "
        "an infinite speed limit; it must be finite",
}


@pytest.mark.parametrize("command, key, value", [
    ("filter", "budget", "lots"),
    ("filter", "duration", [1.0]),
    ("filter", "plant_mass", 0),
    ("filter", "plant_mass", -1.0),
    ("sweep", "box_min", [0, 0]),
    ("sweep", "box_max", "abc"),
    ("sweep", "grid_spacing", "abc"),
    ("sweep", "n_directions", 2.5),
    ("sweep", "n_workers", 1.5),
    ("sweep", "payload", -1),
    ("sweep", "contact_area", 0),
    ("filter", "nominal_speed", float("nan")),
    ("filter", "duration", True),
    ("filter", "velocity_filter", "false"),
    ("filter", "recycling", "no"),
    ("filter", "gain", 1.0e+300),
    ("sweep", "contact_area", 1.0e-300),
    ("filter", "contact_area", 1.0e-300),
    ("limits", "contact_area", HUGE_AREA),
    ("filter", "contact_area", HUGE_AREA),
    ("sweep", "contact_area", HUGE_AREA),
    ("limits", "robot_mass", TINY_MASS),
    ("sweep", "u_s_max", OVERFLOW_K),
])
def test_malformed_input_exits_3(tmp_path, capsys, monkeypatch, command,
                                 key, value):
    def no_ik(*args, **kwargs):
        raise AssertionError("inverse kinematics ran before input checks")

    monkeypatch.setattr("pflsafe.sweep.inverse_kinematics", no_ik)
    face_k = key == "u_s_max"  # the value is Face's stiffness, not an input
    if command == "limits":
        argv = ["--mass" if key == "robot_mass" else "--area", value]
    else:
        base = SWEEP_BOX if command == "sweep" else FILTER_SCENARIO
        path = tmp_path / "input.yaml"
        path.write_text(yaml.safe_dump(
            base if face_k else dict(base, **{key: value})))
        argv = ["--config" if command == "sweep" else "--scenario", path]
    overflow = (key, value) == ("contact_area", HUGE_AREA)
    table = tmp_path / "table.csv"
    if overflow:
        # the packaged table, with a Chest force limit whose square
        # overflows at HUGE_AREA (the filter scenario contacts the chest)
        table.write_text(table_text(chest="Chest,1e200,170,25,40,2\n"))
        argv += ["--body-table", table]
    if key == "robot_mass":
        table.write_text(table_text(face="Face,65,110,2.1e-307,4.4,1\n"))
        argv += ["--body-table", table, "--format", "json"]
    if face_k:
        table.write_text(table_text(face=f"Face,65,110,{value},4.4,1\n"))
        argv += ["--body-table", table]
    assert run(command, *argv, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert key in err
    if overflow:
        assert err.startswith("error: Chest transient: f_max_qs_N = 1e+200")
    if key == "robot_mass":
        assert err.startswith("error: Face transient, robot_mass = 0.001 kg: ")
        assert "u_s_max = " in err and not (tmp_path / "o").exists()
    if face_k:
        # the constant-mass limit, checked before any IK, names the region
        assert err.startswith("error: Face transient, robot_mass = ")
        assert "v0_max: u_s_max = " in err and not (tmp_path / "o").exists()
    if command == "sweep" and key in ("contact_area", "u_s_max"):
        # a budget or limit names the first failing (region, mode) row, in
        # table x mode order
        assert err == f"error: {SWEEP_ERRORS[value]}\n"


@pytest.mark.parametrize("mr, mh, k, v0, keys", [
    pytest.param(1, 1, 5, 1e160, ("m_r", "v0"), id="1-1e+160"),
    pytest.param(1e300, 1, 5, 1e10, ("m_r", "v0"), id="1e+300-10000000000.0"),
    pytest.param(1, "inf", 1e-300, 1e150, ("v0", "m_r", "m_h", "k"),
                 id="peak-compression-squared-overflows"),
    pytest.param(3, 1, 5, 5e-324, ("v0", "m_r", "m_h", "k"),
                 id="peak-compression-5e-324"),
    pytest.param(3, 1, 5, 1e-320, ("v0", "m_r", "m_h", "k"),
                 id="peak-compression-1e-320"),
])
def test_simulate_overflowing_impact_exits_3(tmp_path, capsys, monkeypatch,
                                             mr, mh, k, v0, keys):
    # the impact's momentum or energy overflows a float, or its peak
    # compression leaves the normal floats: rejected before integration
    monkeypatch.setattr(cli, "simulate", None)
    assert run("simulate", "--mr", mr, "--mh", mh, "--k", k, "--v0", v0,
               "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(f"{key} = " in err for key in keys)
    assert not (tmp_path / "o").exists()


with open(assets.robot_model_path(), encoding="utf-8") as _fh:
    PANDA = yaml.safe_load(_fh)


@pytest.mark.parametrize("command, flag, text, words", [
    pytest.param("sweep", "--config", "a: [\n", "invalid YAML",
                 id="sweep---config-a: [\n"),
    pytest.param("filter", "--scenario", "a: [\n", "invalid YAML",
                 id="filter---scenario-a: [\n"),
    pytest.param("limits", "--robot", "a: [\n", "invalid YAML",
                 id="limits---robot-a: [\n"),
    pytest.param("limits", "--robot", yaml.safe_dump(dict(
        PANDA, links=[dict(PANDA["links"][0], mass="x")] + PANDA["links"][1:])),
        "mass must be a number", id="limits-robot-mass-x"),
    pytest.param("limits", "--robot",
                 yaml.safe_dump(dict(PANDA, end_effector=3)),
                 "end_effector must be a mapping",
                 id="limits-robot-end_effector-3"),
    pytest.param("sweep", "--config", "box_min: [0.35, -0.05\n",
                 "invalid YAML", id="sweep-unclosed-flow-sequence"),
    pytest.param("filter", "--scenario", "region: chest\n\trobot_mass: 4.0\n",
                 "invalid YAML", id="filter-tab-indent"),
    pytest.param("limits", "--robot", "name: pan\x01da\n", "invalid YAML",
                 id="limits-control-character"),
    pytest.param("filter", "--scenario", 'region: "\\xZZ"\n', "invalid YAML",
                 id="filter-bad-x-escape"),
    pytest.param("sweep", "--config", "%YAML 2.0\n---\nn_directions: 2\n",
                 "invalid YAML", id="sweep-yaml-2.0"),
    pytest.param("limits", "--robot", "a: " + "[" * 10_000 + "\n",
                 "nesting characters", id="limits-nested-over-the-cap"),
])
def test_unparsable_input_exits_3(tmp_path, capsys, command, flag, text,
                                  words):
    path = tmp_path / "input.yaml"
    path.write_text(text)
    assert run(command, flag, path, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert words in err


@pytest.mark.parametrize("link, key, value", [
    (3, "xyz", [0.0825, float("nan"), 0.0]),
    (6, "axis", [0.0, float("inf"), 1.0]),
    (1, "com", [float("nan")] * 3),
])
def test_non_finite_robot_model_exits_3_before_ik(tmp_path, capsys,
                                                  monkeypatch, link, key,
                                                  value):
    def no_ik(*args, **kwargs):
        raise AssertionError("inverse kinematics ran on a non-finite model")

    monkeypatch.setattr("pflsafe.sweep.inverse_kinematics", no_ik)
    links = [dict(spec, joint=dict(spec["joint"])) for spec in PANDA["links"]]
    spec = links[link] if key == "com" else links[link]["joint"]
    spec[key] = value
    robot = tmp_path / "robot.yaml"
    robot.write_text(yaml.safe_dump(dict(PANDA, links=links)))
    config = tmp_path / "box.yaml"
    config.write_text(yaml.safe_dump(SWEEP_BOX))
    assert run("sweep", "--config", config, "--robot", robot,
               "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"({links[link]['name']}): {key} must be finite" in err


def _count_ik(monkeypatch):
    """The list of sweep IK calls, appended to as the sweep runs."""
    calls = []
    real_ik = sweep.inverse_kinematics

    def counting_ik(*args, **kwargs):
        calls.append(args)
        return real_ik(*args, **kwargs)

    monkeypatch.setattr("pflsafe.sweep.inverse_kinematics", counting_ik)
    return calls


def test_sweep_over_a_pinned_region_exits_3_before_ik(tmp_path, capsys,
                                                      monkeypatch):
    ik_calls = _count_ik(monkeypatch)
    table = tmp_path / "pinned.csv"
    table.write_text(table_text(chest="Chest,140,170,25,inf,2\n"))
    config = tmp_path / "box.yaml"
    config.write_text(yaml.safe_dump(SWEEP_BOX))
    assert run("sweep", "--config", config, "--body-table", table,
               "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: Chest: ") and "Traceback" not in err
    assert "free-impact modes" in err
    assert ik_calls == []


@pytest.mark.parametrize("payload, code", [(0.0, 3), (5.0, 0)])
def test_sweep_needs_a_constant_mass_before_ik(tmp_path, capsys, monkeypatch,
                                              payload, code):
    # no moving link: the constant effective mass is the payload alone
    ik_calls = _count_ik(monkeypatch)
    links = [dict(spec, moving=False) for spec in PANDA["links"]]
    robot = tmp_path / "robot.yaml"
    robot.write_text(yaml.safe_dump(dict(PANDA, links=links)))
    config = tmp_path / "box.yaml"
    config.write_text(yaml.safe_dump(dict(SWEEP_BOX, payload=payload)))
    assert run("sweep", "--config", config, "--robot", robot,
               "--out", tmp_path / "o") == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: constant effective mass")
        assert "payload 0.0 kg" in err
        assert ik_calls == []
    else:
        assert len(ik_calls) == 27


def test_a_too_light_constant_mass_is_named(tmp_path, capsys):
    # no moving link and a 1 kg payload: the constant-mass variant beats
    # the reflected-mass baseline, and the message says why
    links = [dict(spec, moving=False) for spec in PANDA["links"]]
    robot = tmp_path / "robot.yaml"
    robot.write_text(yaml.safe_dump(dict(PANDA, links=links)))
    config = tmp_path / "box.yaml"
    config.write_text(yaml.safe_dump(dict(SWEEP_BOX, payload=1.0)))
    assert run("sweep", "--config", config, "--robot", robot,
               "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "variant is not conservative" in err
    assert ("the constant effective mass 1 kg (half the moving link mass + "
            "payload 1 kg) is too light against the arm's reflected masses, "
            "the smallest ") in err


def test_sweep_with_a_singular_mass_matrix_exits_3(tmp_path, capsys):
    links = [dict(spec) for spec in PANDA["links"]]
    links[-1] = dict(links[-1], mass=0.0,
                     inertia=dict.fromkeys(links[-1]["inertia"], 0.0))
    robot = tmp_path / "robot.yaml"
    robot.write_text(yaml.safe_dump(dict(PANDA, links=links)))
    config = tmp_path / "point.yaml"
    config.write_text(yaml.safe_dump(dict(
        SWEEP_BOX, box_min=[0.4, 0.0, 0.45], box_max=[0.4, 0.0, 0.45])))
    assert run("sweep", "--config", config, "--robot", robot,
               "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: mass matrix is singular at q = ")
    assert "Traceback" not in err


def test_empty_filter_scenario_runs_on_defaults(tmp_path):
    scenario = tmp_path / "empty.yaml"
    scenario.write_text("")
    out = tmp_path / "o"
    assert run("filter", "--scenario", scenario, "--out", out) == 0
    summary = json.loads((out / "filter_summary.json").read_text())
    assert (summary["region"], summary["mode"]) == ("face", "transient")
    assert summary["peak_speed_mps"] <= summary["v0_max_mps"] * (1 + 1e-9)


#: a sweep config and a filter scenario whose exponents have no dot
EXPONENT_CONFIG = ("box_min: [0.35, -0.05, 0.40]\n"
                   "box_max: [0.45, 0.05, 0.50]\n"
                   "grid_spacing: 5e-2\nn_directions: 2\n")
EXPONENT_SCENARIO = ("region: chest\nrobot_mass: 4.0\nduration: 0.01\n"
                     "period: 1e-3\nnominal_speed: null\n")


def test_exponent_without_a_dot_is_a_number(tmp_path):
    config = tmp_path / "sweep.yaml"
    config.write_text(EXPONENT_CONFIG)
    assert run("sweep", "--config", config, "--out", tmp_path / "s") == 0
    stats = json.loads((tmp_path / "s" / "fig_boxstats.json").read_text())
    assert stats["counts"]["grid_points"] == 27


def test_filter_manifest_records_the_resolved_scenario(tmp_path):
    scenario = tmp_path / "scn.yaml"
    scenario.write_text(EXPONENT_SCENARIO)
    out = tmp_path / "o"
    assert run("filter", "--scenario", scenario, "--out", out) == 0
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert config == dict(dataclasses.asdict(FilterScenario()),
                          region="chest", robot_mass=4.0, duration=0.01,
                          period=0.001)
    assert config["period"] == 0.001 and config["budget"] == "k0_max"
    assert config["velocity_filter"] is True and config["contact_area"] == 1.0
    assert config["nominal_speed"] is None  # derived: twice the limit


def test_the_manifest_digests_the_bytes_that_were_parsed(tmp_path,
                                                         monkeypatch):
    robot = tmp_path / "robot.yaml"
    parsed = assets.robot_model_path().read_bytes()
    robot.write_bytes(parsed)
    real_sweep = cli.run_sweep

    def editing_sweep(*args, **kwargs):
        # the file changes while the sweep runs on the model parsed before
        robot.write_bytes(parsed + b"# edited\n")
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(cli, "run_sweep", editing_sweep)
    config = tmp_path / "sweep.yaml"
    config.write_text(yaml.safe_dump(dict(SWEEP_BOX, grid_spacing=0.1)))
    out = tmp_path / "sweep"
    assert run("sweep", "--config", config, "--robot", robot,
               "--out", out) == 0
    inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
    assert inputs["robot"] == {"path": str(robot),
                               "sha256": hashlib.sha256(parsed).hexdigest()}
    assert robot.read_bytes() != parsed


def _artefacts(out) -> dict:
    """Every file of an output directory; the manifest without its time."""
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    manifest = json.loads(files.pop("run_manifest.json"))
    assert manifest.pop("timestamp")
    files["run_manifest.json"] = manifest
    return files


@pytest.mark.parametrize("argv, loads", [
    (("simulate", "--mr", 3, "--mh", 1, "--k", 5, "--v0", 1), 0),
    (("limits", "--payload", 0.5), 2),
    (("sweep", "--config", dict(SWEEP_BOX, grid_spacing=0.1)), 2),
    (("filter", "--scenario", dict(FILTER_SCENARIO, robot_mass="constant")),
     2),
], ids=["simulate", "limits", "sweep", "filter"])
def test_a_warm_loader_cache_writes_the_same_bytes(tmp_path, capsys, argv,
                                                   loads):
    argv = list(argv)
    if isinstance(argv[-1], dict):
        path = tmp_path / "input.yaml"
        path.write_text(yaml.safe_dump(argv[-1]))
        argv[-1] = path
    caches = (body._parse_body_table, dynamics._parse_robot_model)
    for cache in caches:
        cache.cache_clear()
    assert run(*argv, "--out", tmp_path / "cold") == 0
    cold_stdout = capsys.readouterr().out
    assert run(*argv, "--out", tmp_path / "warm") == 0
    assert capsys.readouterr().out == cold_stdout
    # the second run parsed nothing: each load was a hit
    assert sum(cache.cache_info().hits for cache in caches) == loads
    assert sum(cache.cache_info().misses for cache in caches) == loads
    cold, warm = _artefacts(tmp_path / "cold"), _artefacts(tmp_path / "warm")
    assert cold == warm and len(cold) >= 2


@pytest.mark.parametrize("argv", [
    ("sweep", "--config", SWEEP_BOX),
    ("limits", "--format", "json"),
    ("simulate", "--mr", 3, "--mh", 1, "--k", 5, "--v0", 1),
    ("filter", "--scenario", FILTER_SCENARIO),
], ids=["sweep", "limits", "simulate", "filter"])
def test_no_artefact_depends_on_hash_order(tmp_path, argv):
    # each run in its own interpreter, under a different string hash seed,
    # and under a different count of BLAS threads
    argv = list(argv)
    if isinstance(argv[-1], dict):
        path = tmp_path / "input.yaml"
        path.write_text(yaml.safe_dump(argv[-1]))
        argv[-1] = path
    src = Path(cli.__file__).parents[1]
    for name, values in (("PYTHONHASHSEED", ("0", "1")),
                         ("OPENBLAS_NUM_THREADS", ("1", "2"))):
        runs = []
        for value in values:
            out = tmp_path / f"{name}{value}"
            env = dict(os.environ, PYTHONPATH=str(src), **{name: value})
            done = subprocess.run(
                [sys.executable, "-m", "pflsafe.cli", *map(str, argv),
                 "--out", str(out)], env=env, capture_output=True, text=True,
                timeout=120)
            assert done.returncode == 0, done.stderr
            runs.append((done.stdout, _artefacts(out)))
        assert runs[0] == runs[1] and len(runs[0][1]) >= 2, name


def _sweep_in_fresh_interpreter(out: Path, coretype: str | None) -> tuple:
    """Exit code, stdout and output directory of ``sweep`` on REACH_BOX in a
    new interpreter, under the OpenBLAS kernel set ``coretype``."""
    config = out.with_suffix(".yaml")
    config.write_text(yaml.safe_dump(
        {key: list(value) if isinstance(value, tuple) else value
         for key, value in REACH_BOX.items()}))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update({"OPENBLAS_CORETYPE": coretype} if coretype else {},
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "pflsafe.cli", "sweep", "--config", str(config),
         "--out", str(out)], env=env, capture_output=True, text=True,
        timeout=120)
    return done.returncode, done.stdout, out


def _leaves(obj):
    """The keys and scalars of a JSON value, in order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _leaves(value)
    elif isinstance(obj, list):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def _csv_cells(text: str):
    """The cells of a CSV text, each number as a float."""
    for cell in text.replace("\n", ",").split(","):
        try:
            yield float(cell)
        except ValueError:
            yield cell


@pytest.fixture(scope="module")
def default_kernel_sweep(tmp_path_factory):
    return _sweep_in_fresh_interpreter(
        tmp_path_factory.mktemp("kernels") / "default", None)


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_a_sweep_agrees_across_openblas_kernel_sets(tmp_path,
                                                    default_kernel_sweep,
                                                    coretype):
    # the bytes hold per kernel set only: the counts and stdout are equal
    # across kernel sets, and every number agrees within 1e-7 relative;
    # the SVG's .6g text may round the other way, so it is not compared
    cpuinfo = Path("/proc/cpuinfo")
    flags = set(cpuinfo.read_text().split()) if cpuinfo.is_file() else set()
    if coretype == "Haswell" and not {"avx2", "fma"} <= flags:
        pytest.skip("Haswell kernels need AVX2 and FMA")
    code, stdout, out = default_kernel_sweep
    other_code, other_stdout, other = _sweep_in_fresh_interpreter(
        tmp_path / coretype, coretype)
    assert code == other_code == 0
    assert stdout == other_stdout
    manifest, other_manifest = (json.loads((d / "run_manifest.json")
                                           .read_text()) for d in (out, other))
    assert manifest["counts"] == other_manifest["counts"]
    for name, cells in (("sweep_result.csv", _csv_cells),
                        ("scaling_report.csv", _csv_cells),
                        ("fig_boxstats.json",
                         lambda text: _leaves(json.loads(text)))):
        ours, theirs = (list(cells((d / name).read_text()))
                        for d in (out, other))
        assert len(ours) == len(theirs) > 1, name
        for a, b in zip(ours, theirs):
            if isinstance(a, float) and isinstance(b, float):
                assert a == pytest.approx(b, rel=1e-7), name
            else:
                assert a == b, name


_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                   "OMP_NUM_THREADS")

#: a fresh interpreter's BLAS thread count and threads after an import
_THREADS_AFTER = """
import os
{imports}
tasks = "/proc/self/task"
print(os.environ.get("OPENBLAS_NUM_THREADS"),
      len(os.listdir(tasks)) if os.path.isdir(tasks) else None)
"""


@pytest.mark.parametrize("preset, imports, expected", [
    ({}, "import pflsafe", "1"),
    ({"OPENBLAS_NUM_THREADS": "3"}, "import pflsafe", "3"),
    ({"GOTO_NUM_THREADS": "3"}, "import pflsafe", None),
    ({"OMP_NUM_THREADS": "3"}, "import pflsafe", None),
    ({}, "import numpy, pflsafe", None),
], ids=["unset", "openblas-preset", "goto-preset", "omp-preset",
        "numpy-first"])
def test_a_fresh_process_asks_for_one_blas_thread_unless_told(preset, imports,
                                                              expected):
    # pflsafe sets OPENBLAS_NUM_THREADS=1 only before numpy loads, and only
    # where none of the BLAS thread variables is set
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARIABLES}
    env.update(preset, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _THREADS_AFTER.format(imports=imports)],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    value, threads = done.stdout.split()
    assert value == str(expected)
    if expected == "1" and threads != "None":
        assert threads == "1"  # no BLAS worker was started


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("region: Sch\u00e4del\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("argv", [
    ("limits", "--mass", 5, "--body-table", "{dir}"),
    ("limits", "--robot", "{dir}"),
    ("sweep", "--config", "{dir}"),
    ("simulate", "--mr", 3, "--mh", 1, "--k", 5, "--v0", 1, "--out", "{file}"),
    ("filter", "--scenario", "{latin1}"),
    ("limits", "--robot", "{latin1}"),
    ("limits", "--mass", 5, "--body-table", "{latin1}"),
], ids=["body-table-dir", "robot-dir", "config-dir", "out-is-a-file",
        "scenario-latin1", "robot-latin1", "body-table-latin1"])
def test_unreadable_input_exits_3(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("x")
    paths = {"{dir}": tmp_path, "{file}": tmp_path / "file",
             "{latin1}": _not_utf8(tmp_path)}
    argv = [paths.get(a, a) for a in argv]
    if "--out" not in argv:
        argv += ["--out", tmp_path / "o"]
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("filter", "--scenario", {"duration": 1.0e+300}),
    ("sweep", "--config", {"box_max": [1.0e+300, 0.0, 0.3]}),
    ("sweep", "--config", {"n_directions": 10 ** 400}),
], ids=["filter-steps", "sweep-grid", "sweep-directions"])
def test_work_over_the_cap_exits_3_before_allocating(tmp_path, capsys,
                                                     monkeypatch, argv):
    monkeypatch.setattr("pflsafe.sweep.inverse_kinematics", None)
    argv = list(argv)
    if isinstance(argv[-1], dict):
        path = tmp_path / "input.yaml"
        path.write_text(yaml.safe_dump(argv[-1]))
        argv[-1] = path
    assert run(*argv, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cap of" in err


# ------------------------------------------------------ table-driven fuzz

#: each bad value goes into every key of every input schema
FUZZ_VALUES = (math.nan, math.inf, -math.inf, True, "x", [1], 1e300, -1)


def _spoil(value, bad):
    """``bad`` in place of ``value``; for a 3-vector, in its middle element."""
    if isinstance(value, list) and len(value) == 3:
        return [value[0], bad, value[2]]
    return bad


#: the mapping that holds each level's keys, found from the whole model
ROBOT_LEVELS = {
    "model": lambda model: model,
    "end_effector": lambda model: model["end_effector"],
    "link": lambda model: model["links"][1],
    "joint": lambda model: model["links"][1]["joint"],
    "inertia": lambda model: model["links"][1]["inertia"],
}


FUZZ_CASES = (
    [("sweep", None, f.name) for f in dataclasses.fields(sweep.SweepConfig)]
    + [("filter", None, f.name) for f in dataclasses.fields(FilterScenario)]
    + [("robot", level, key) for level, keys in MODEL_KEYS.items()
       for key in keys])


@pytest.mark.parametrize(
    "target, level, key", FUZZ_CASES,
    ids=["-".join(filter(None, case)) for case in FUZZ_CASES])
def test_fuzz_every_key_keeps_the_exit_code_contract(tmp_path, capsys,
                                                     monkeypatch, target,
                                                     level, key):
    ik_calls = []
    real_ik = sweep.inverse_kinematics

    def counting_ik(*args, **kwargs):
        ik_calls.append(args)
        return real_ik(*args, **kwargs)

    monkeypatch.setattr("pflsafe.sweep.inverse_kinematics", counting_ik)
    path = tmp_path / "input.yaml"
    for bad in FUZZ_VALUES:
        ik_calls.clear()
        if target == "robot":
            model = copy.deepcopy(PANDA)
            parent = ROBOT_LEVELS[level](model)
            parent[key] = _spoil(parent.get(key), bad)
            path.write_text(yaml.safe_dump(model))
            argv = ("limits", "--robot", path)
        else:
            base = dict(SWEEP_BOX if target == "sweep" else FILTER_SCENARIO)
            base[key] = _spoil(base.get(key), bad)
            path.write_text(yaml.safe_dump(base))
            argv = (target, "--config" if target == "sweep" else "--scenario",
                    path)
        code = run(*argv, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code in (0, 3, 4), (key, bad, code)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: "), (key, bad, err)
        if code == 3:
            assert not ik_calls, (key, bad)


@pytest.mark.parametrize("level", ["model", "link"])
def test_robot_names_must_be_strings(tmp_path, capsys, level):
    path = tmp_path / "robot.yaml"
    for bad in FUZZ_VALUES:
        if isinstance(bad, str):
            continue
        model = copy.deepcopy(PANDA)
        ROBOT_LEVELS[level](model)["name"] = bad
        path.write_text(yaml.safe_dump(model))
        assert run("limits", "--robot", path, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "name must be a string" in err, (bad, err)


def test_usage_errors():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--mr", "3"])  # missing required flags
    assert info.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "pflsafe" in capsys.readouterr().out
