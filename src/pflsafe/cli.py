"""Command-line interface.

Subcommands:

  simulate   integrate one collision scenario -> trajectory CSV + outcome JSON
  limits     tabulate admissible speeds per region/mode -> CSV or JSON
  sweep      workspace sweep -> sample CSV, scaling CSV, box stats, SVG
  filter     run the filtered velocity loop from a scenario file -> log CSV

Every run writes a ``run_manifest.json`` with the tool version, the resolved
configuration and SHA-256 digests of all file inputs, so results can be
reproduced exactly; a sweep's also counts its grid points by IK outcome.
Exit codes: 0 success, 2 usage error, 3 invalid input/configuration,
4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import io
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, assets
from .body import ContactMode, REGION_IDS, REGION_LABELS, load_body_table
from .collision import CollisionScenario, simulate, total_energy
from .dynamics import load_robot_model, iso_effective_mass
from .errors import InputError, NumericalError
from .limits import compute_limit
from .safety_filter import simulate_loop
from .schema import flag, number, read_mapping, text, write_csv, write_json
from .svgplot import line_chart, y_axis
from .sweep import (SweepConfig, render_sweep_svg, run_sweep, scaling_report,
                    write_boxstats_json, write_scaling_csv, write_sweep_csv)

_INPUT_EXIT = 3
_NUMERIC_EXIT = 4

_MODE_ALIASES = {
    "transient": ContactMode.TRANSIENT,
    "qs-free": ContactMode.QUASI_STATIC_FREE,
    "quasi_static_free": ContactMode.QUASI_STATIC_FREE,
    "qs-clamped": ContactMode.QUASI_STATIC_CLAMPED,
    "quasi_static_clamped": ContactMode.QUASI_STATIC_CLAMPED,
}


def _parse_mode(text: str) -> ContactMode:
    mode = _MODE_ALIASES.get(text.strip().lower())
    if mode is None:
        raise InputError(
            f"unknown contact mode {text!r}; valid: transient, qs-free, "
            f"qs-clamped")
    return mode


def _read_input(inputs: dict[str, dict], name: str, path: str) -> io.BytesIO:
    """The bytes of an input file, read once: the loader parses them and
    ``inputs[name]`` records their SHA-256 for the manifest."""
    path = Path(path)
    data = path.read_bytes()
    inputs[name] = {"path": str(path),
                    "sha256": hashlib.sha256(data).hexdigest()}
    stream = io.BytesIO(data)
    stream.name = path.name  # the file name that a not-UTF-8 error names
    return stream


def _write_manifest(out_dir: Path, subcommand: str, config: dict,
                    inputs: dict[str, dict], outputs: list[str],
                    counts: dict[str, int] | None = None) -> None:
    manifest = {
        "tool": "pflsafe",
        "version": __version__,
        "subcommand": subcommand,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
    }
    if counts is not None:
        manifest["counts"] = counts
    write_json(manifest, out_dir / "run_manifest.json")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    scenario = CollisionScenario(m_r=args.mr, m_h=args.mh, k=args.k, v0=args.v0)
    traj, outcome = simulate(scenario)
    out = _out_dir(args)

    write_csv(out / "trajectory.csv", ("t", "v_r", "v_h", "dx"),
              (traj.t, traj.v_r, traj.v_h, traj.dx))

    energy = total_energy(scenario, traj)
    write_json({**dataclasses.asdict(outcome),
                "energy_drift_rel": float(abs(energy - energy[0]).max()
                                          / max(energy[0], 1e-300))},
               out / "outcome.json")

    svg = line_chart(
        {"robot speed [m/s]": (traj.t, traj.v_r),
         "body-part speed [m/s]": (traj.t, traj.v_h),
         "compression [m]": (traj.t, traj.dx)},
        title=f"collision: m_r={args.mr:g} kg, m_h={args.mh:g} kg, "
              f"k={args.k:g} N/m, v0={args.v0:g} m/s",
        xlabel="time [s]")
    (out / "trajectory.svg").write_text(svg, encoding="utf-8")

    _write_manifest(out, "simulate",
                    {"m_r": args.mr, "m_h": args.mh, "k": args.k,
                     "v0": args.v0},
                    {}, ["trajectory.csv", "outcome.json", "trajectory.svg"])
    print(f"peak force {outcome.f_peak:.6g} N at t* = {outcome.t_star:.6g} s; "
          f"common velocity {outcome.v_star:.6g} m/s")
    return 0


# --------------------------------------------------------------- limits

def _cmd_limits(args) -> int:
    inputs: dict[str, dict] = {}
    table = load_body_table(_read_input(inputs, "body_table", args.body_table))

    if args.mass is not None:
        robot_mass = args.mass
        mass_note = "explicit"
    else:
        robot = load_robot_model(_read_input(inputs, "robot", args.robot))
        robot_mass = iso_effective_mass(robot, payload=args.payload)
        mass_note = "constant (half moving mass + payload)"

    regions = REGION_IDS if args.region == "all" else (args.region,)
    modes = (tuple(ContactMode) if args.mode == "all"
             else (_parse_mode(args.mode),))

    rows = []
    for region in regions:
        params = table[region]
        for mode in modes:
            if params.clamped_only and mode is not ContactMode.QUASI_STATIC_CLAMPED:
                continue
            limit = compute_limit(table, region, mode, robot_mass, args.area)
            rows.append({
                "region": params.region_id, "mode": mode.value,
                "robot_mass_kg": robot_mass,
                "contact_area_cm2": args.area,
                "binding_criterion": limit.binding_criterion,
                "u_s_max_J": limit.u_s_max,
                "v0_max_mps": limit.v0_max,
                "k0_max_J": limit.k0_max,
            })

    out = _out_dir(args)
    if args.format == "json":
        out_name = "limits.json"
        write_json(rows, out / out_name)
    else:
        out_name = "limits.csv"
        header = ["region", "mode", "robot_mass_kg", "contact_area_cm2",
                  "binding_criterion", "u_s_max_J", "v0_max_mps", "k0_max_J"]
        with open(out / out_name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(str(row[h]) for h in header) + "\n")

    _write_manifest(out, "limits",
                    {"region": args.region, "mode": args.mode,
                     "robot_mass": robot_mass, "mass_source": mass_note,
                     "contact_area": args.area, "format": args.format},
                    inputs, [out_name])
    for row in rows:
        print(f"{REGION_LABELS[row['region']]:<20} {row['mode']:<22} "
              f"v0_max = {row['v0_max_mps']:.4f} m/s "
              f"({row['binding_criterion']} bound)")
    return 0


# ---------------------------------------------------------------- sweep

#: sweep config keys: every SweepConfig field
_SWEEP_KEYS = tuple(f.name for f in dataclasses.fields(SweepConfig))


def _cmd_sweep(args) -> int:
    inputs: dict[str, dict] = {}
    table = load_body_table(_read_input(inputs, "body_table", args.body_table))
    model = load_robot_model(_read_input(inputs, "robot", args.robot))
    raw = (read_mapping(_read_input(inputs, "config", args.config),
                        "sweep config", _SWEEP_KEYS)
           if args.config else {})
    if args.workers is not None:
        raw["n_workers"] = args.workers
    config = SweepConfig(**raw)

    result = run_sweep(model, table, config)
    report = scaling_report(result)

    out = _out_dir(args)
    write_sweep_csv(result, out / "sweep_result.csv")
    write_scaling_csv(report, out / "scaling_report.csv")
    write_boxstats_json(result, out / "fig_boxstats.json")
    (out / "sweep_boxplot.svg").write_text(render_sweep_svg(result),
                                           encoding="utf-8")

    _write_manifest(out, "sweep",
                    {key: getattr(config, key) for key in _SWEEP_KEYS},
                    inputs,
                    ["sweep_result.csv", "scaling_report.csv",
                     "fig_boxstats.json", "sweep_boxplot.svg"],
                    {"converged": result.n_reachable,
                     "rejected": result.n_rejected,
                     "budget_spent": result.n_budget_spent,
                     "ik_iterations": result.ik_iterations})
    print(f"grid points {result.n_grid}, reachable {result.n_reachable}, "
          f"near-singular {result.n_singular}; constant effective mass "
          f"{result.iso_mass:.4f} kg")
    return 0


# --------------------------------------------------------------- filter

@dataclasses.dataclass(frozen=True)
class FilterScenario:
    """Filter scenario file: one field per YAML key, with its default.

    ``None`` (or YAML ``null``) is derived: the plant mass is the robot's,
    the gain 20 times the plant mass, no power cap, twice the limit speed.
    """

    region: str = "face"
    mode: str = "transient"
    contact_area: float = 1.0           # cm^2
    robot_mass: float | str = "constant"  # kg, or the model's constant mass
    payload: float = 0.0                # kg, for the constant mass
    plant_mass: float | None = None     # kg
    budget: float | str = "k0_max"      # J, "k0_max" or "u_s_max"
    duration: float = 2.0               # s
    period: float = 1e-3                # s
    gain: float | None = None           # N s/m
    power_cap: float | None = None      # W
    recycling: bool = False
    velocity_filter: bool = True
    nominal_speed: float | None = None  # m/s

    def __post_init__(self) -> None:
        what = "filter scenario"
        for field in dataclasses.fields(self):
            key, value = field.name, getattr(self, field.name)
            if isinstance(field.default, bool):
                flag(what, key, value)
            elif key in ("region", "mode"):
                text(what, key, value)
            elif not ((value is None and field.default is None)
                      or value in _FILTER_WORDS.get(key, ())):
                object.__setattr__(self, key, number(what, key, value))
        if self.plant_mass is not None:
            number(what, "plant_mass", self.plant_mass, gt=0)


#: the words a filter scenario number key accepts in place of a number
_FILTER_WORDS = {"robot_mass": ("constant",), "budget": ("k0_max", "u_s_max")}


def _cmd_filter(args) -> int:
    inputs: dict[str, dict] = {}
    scenario = FilterScenario(**read_mapping(
        _read_input(inputs, "scenario", args.scenario), "filter scenario",
        [field.name for field in dataclasses.fields(FilterScenario)]))
    table = load_body_table(_read_input(inputs, "body_table", args.body_table))

    mode = _parse_mode(scenario.mode)
    if scenario.robot_mass == "constant":
        robot = load_robot_model(_read_input(inputs, "robot", args.robot))
        robot_mass = iso_effective_mass(robot, scenario.payload)
    else:
        robot_mass = scenario.robot_mass

    limit = compute_limit(table, scenario.region, mode, robot_mass,
                          scenario.contact_area)
    region_id = table[scenario.region].region_id

    # a budget word names the limit's energy of that name
    budget = (getattr(limit, scenario.budget)
              if isinstance(scenario.budget, str) else scenario.budget)

    plant_mass = (robot_mass if scenario.plant_mass is None
                  else scenario.plant_mass)
    nominal_speed = (2.0 * limit.v0_max if scenario.nominal_speed is None
                     else scenario.nominal_speed)
    # the chart's y axis holds 0, the full tank, the nominal speed and
    # v0_max; a negative budget, which the loop rejects, moves neither end
    y_lo, y_hi = y_axis(nominal_speed,
                        max(budget, nominal_speed, limit.v0_max))
    if not math.isfinite(y_hi - y_lo):
        raise InputError(
            f"filter scenario: budget = {budget!r} J and nominal_speed = "
            f"{nominal_speed!r} m/s leave the chart a y range [{y_lo!r}, "
            f"{y_hi!r}] wider than a float holds")

    log = simulate_loop(limit, plant_mass, lambda t: nominal_speed, budget,
                        scenario.duration, scenario.period,
                        recycling=scenario.recycling,
                        power_cap=scenario.power_cap,
                        velocity_filter=scenario.velocity_filter,
                        gain=scenario.gain)
    out = _out_dir(args)
    log.write_csv(out / "filter_log.csv")
    svg = line_chart(
        {"nominal [m/s]": (log.t, log.v_nominal),
         "commanded [m/s]": (log.t, log.v_commanded),
         "plant speed [m/s]": (log.t, log.velocity),
         "tank energy [J]": (log.t, log.tank_energy)},
        title=f"filtered loop: {REGION_LABELS[region_id]}, {mode.value}",
        xlabel="time [s]",
        hlines={"v0_max": limit.v0_max})
    (out / "filter_log.svg").write_text(svg, encoding="utf-8")

    peak = float(abs(log.velocity).max())
    summary = {
        "region": region_id, "mode": mode.value,
        "robot_mass_kg": robot_mass, "v0_max_mps": limit.v0_max,
        "budget_J": budget, "peak_speed_mps": peak,
        "peak_ke_J": float(log.ke.max()),
        "tank_final_J": float(log.tank_energy[-1]),
        "injected_total_J": float(log.injected_cum[-1]),
    }
    write_json(summary, out / "filter_summary.json")

    _write_manifest(out, "filter", dataclasses.asdict(scenario), inputs,
                    ["filter_log.csv", "filter_log.svg", "filter_summary.json"])
    print(f"peak speed {peak:.6g} m/s vs limit {limit.v0_max:.6g} m/s; "
          f"injected {summary['injected_total_J']:.6g} J of "
          f"{budget:.6g} J budget")
    return 0


# ----------------------------------------------------------------- main

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pflsafe",
        description="Power-and-force-limiting safety analysis for "
                    "collaborative robots.")
    parser.add_argument("--version", action="version",
                        version=f"pflsafe {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one collision scenario")
    p_sim.add_argument("--mr", type=float, required=True,
                       help="robot effective mass [kg]")
    p_sim.add_argument("--mh", type=float, required=True,
                       help="body-part effective mass [kg], 'inf' = clamped")
    p_sim.add_argument("--k", type=float, required=True,
                       help="contact stiffness [N/m]")
    p_sim.add_argument("--v0", type=float, required=True,
                       help="impact speed [m/s]")
    p_sim.add_argument("--out", default="pflsafe-out", help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_lim = sub.add_parser("limits", help="tabulate admissible speeds")
    p_lim.add_argument("--region", default="all",
                       help="region id or 'all' (default)")
    p_lim.add_argument("--mode", default="all",
                       help="transient | qs-free | qs-clamped | all")
    p_lim.add_argument("--mass", type=float, default=None,
                       help="robot effective mass [kg]; default: constant "
                            "mass of --robot")
    p_lim.add_argument("--payload", type=float, default=0.0,
                       help="payload [kg] for the constant-mass default")
    p_lim.add_argument("--area", type=float, default=1.0,
                       help="contact area [cm^2] (default 1)")
    p_lim.add_argument("--body-table", default=str(assets.body_table_path()),
                       help="body-region limit table CSV")
    p_lim.add_argument("--robot", default=str(assets.robot_model_path()),
                       help="robot model YAML")
    p_lim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_lim.add_argument("--out", default="pflsafe-out")
    p_lim.set_defaults(func=_cmd_limits)

    p_sweep = sub.add_parser("sweep", help="workspace speed-limit sweep")
    p_sweep.add_argument("--config", default=None,
                         help="sweep configuration YAML (defaults apply)")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="ignored: recorded in the manifest, but "
                              "the sweep runs in one process "
                              "(overrides config)")
    p_sweep.add_argument("--body-table", default=str(assets.body_table_path()))
    p_sweep.add_argument("--robot", default=str(assets.robot_model_path()))
    p_sweep.add_argument("--out", default="pflsafe-out")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_filt = sub.add_parser("filter", help="run the filtered velocity loop")
    p_filt.add_argument("--scenario", required=True,
                        help="loop scenario YAML")
    p_filt.add_argument("--body-table", default=str(assets.body_table_path()))
    p_filt.add_argument("--robot", default=str(assets.robot_model_path()))
    p_filt.add_argument("--out", default="pflsafe-out")
    p_filt.set_defaults(func=_cmd_filter)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        # OSError: an input that cannot be read, an --out that is a file
        print(f"error: {exc}", file=sys.stderr)
        return _INPUT_EXIT
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
