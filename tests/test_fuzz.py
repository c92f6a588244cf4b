"""A fuzz of the CLI exit-code contract: extreme values in every input.

The ``simulate`` slice sets each number flag alone to each of ``ALONE``, and
each pair of flags to each pair of ``PAIRED``, on a free and on a clamped
base scenario.  The sweep-config slice sets each key of a one-point sweep
config, and each component of its box corners, to each of ``YAML_VALUES``.
The body-table slice sets each cell of the Face row to each of
``CELL_VALUES`` and runs ``sweep``, ``limits`` and ``filter`` on it.  The
filter slice sets each key of a short filter scenario to each of
``YAML_VALUES``, and each pair of its number keys to each pair of
``PAIRED``; the ``limits`` slice sets each number flag to each of ``ALONE``.
Every case must exit 0, 2, 3 or 4 (``simulate``: 0, 2 or 3), print one
``error:`` line on failure and no warning, and write only finite numbers.
"""
import itertools
import json
import re
import warnings

import pytest

from pflsafe import assets
from pflsafe.cli import main

#: the values each flag takes alone
ALONE = ("0", "-0.0", "5e-324", "1e-300", "1e300", "1.75e308", "-1.75e308",
         "nan", "inf", "-inf")

#: the values each pair of flags takes
PAIRED = ("5e-324", "1e-300", "1e300", "1.75e308")

SIMULATE_BASES = {
    "free": {"--mr": "3", "--mh": "1", "--k": "5", "--v0": "1"},
    "clamped": {"--mr": "3", "--mh": "inf", "--k": "75000", "--v0": "0.1"},
}


def _simulate_cases(base: dict[str, str]) -> list[dict[str, str]]:
    """``base`` with one flag, or a pair of flags, set to extreme values."""
    cases = [dict(base, **{flag: value}) for flag in base for value in ALONE]
    for pair in itertools.combinations(base, 2):
        cases += [dict(base, **dict(zip(pair, values)))
                  for values in itertools.product(PAIRED, repeat=2)]
    return cases


def _finite_json(text: str) -> bool:
    """Whether a JSON text holds no ``NaN``, ``Infinity`` or ``-Infinity``."""
    constants = []
    json.loads(text, parse_constant=constants.append)
    return not constants


def _breach(argv: list[str], capsys, artefact,
            codes=(0, 2, 3, 4)) -> tuple[str | None, str]:
    """How one CLI run breaks the contract (None if it keeps it), and its
    stderr.  It must exit with one of ``codes`` and raise no warning; on
    success print nothing to stderr and write a finite JSON ``artefact``;
    on failure print one ``error:`` line, alone on stderr unless for usage."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage error
            code = exc.code
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error: " in line]
    if code not in codes:
        return f"exit {code}", err
    if caught:
        return f"warned {caught[0].message}", err
    if code == 0:
        finite = _finite_json(artefact.read_text(encoding="utf-8"))
        return (None if finite and not err
                else "stderr or a non-finite artefact"), err
    if len(errors) != 1 or (code != 2 and errors != [err.strip()]):
        return "not one error line", err
    return None, err


@pytest.mark.parametrize("base", SIMULATE_BASES)
def test_simulate_keeps_the_exit_code_contract(tmp_path, capsys, base):
    cases = _simulate_cases(SIMULATE_BASES[base])
    assert len(cases) == 4 * len(ALONE) + 6 * len(PAIRED) ** 2
    broken = []
    for i, case in enumerate(cases):
        out = tmp_path / f"o{i}"
        argv = ["simulate", *itertools.chain(*case.items()), "--out", str(out)]
        reason, err = _breach(argv, capsys, out / "outcome.json", (0, 2, 3))
        if reason is None and re.search(r"error: .*(\bdt\b|horizon)", err):
            reason = "names the integrator"
        if reason:
            broken.append((case, reason, err))
    assert broken == []


#: the values each sweep-config key and corner component takes, as YAML
YAML_VALUES = ("0", "-0.0", "5e-324", "1e-300", "1e300", "1.75e308",
               "-1.75e308", ".nan", ".inf", "-.inf", "true", "'1.0'", "[1.0]",
               "{a: 1}", "null")

#: a sweep of one reachable point, as YAML value texts
SWEEP_BASE = {"box_min": ["0.4", "0.0", "0.45"],
              "box_max": ["0.4", "0.0", "0.45"], "grid_spacing": "0.05",
              "n_directions": "4", "direction_style": "sphere",
              "contact_area": "1.0", "payload": "0.0", "n_workers": "1"}


def _yaml(config: dict) -> str:
    """A sweep config's YAML text, each corner a flow list of its texts."""
    return "".join(f"{key}: [{', '.join(value)}]\n" if isinstance(value, list)
                   else f"{key}: {value}\n" for key, value in config.items())


def _sweep_cases() -> list[dict]:
    """``SWEEP_BASE`` with one key, or one corner component, set to each of
    ``YAML_VALUES``."""
    cases = [dict(SWEEP_BASE, **{key: value})
             for key in SWEEP_BASE for value in YAML_VALUES]
    for corner in ("box_min", "box_max"):
        for axis in range(3):
            for value in YAML_VALUES:
                point = list(SWEEP_BASE[corner])
                point[axis] = value
                cases.append(dict(SWEEP_BASE, **{corner: point}))
    return cases


def test_sweep_config_keeps_the_exit_code_contract(tmp_path, capsys):
    cases = _sweep_cases()
    assert len(cases) == (len(SWEEP_BASE) + 6) * len(YAML_VALUES)
    config, out = tmp_path / "sweep.yaml", tmp_path / "out"
    broken = []
    for case in cases:
        config.write_text(_yaml(case), encoding="utf-8")
        reason, err = _breach(["sweep", "--config", str(config), "--out",
                               str(out)], capsys, out / "fig_boxstats.json")
        if reason:
            broken.append((case, reason, err))
    assert broken == []


#: the values each cell of the body table's Face row takes
CELL_VALUES = ALONE + ("true", "'1.0'", "[1.0]", "{a: 1}", "")


def test_body_table_keeps_the_exit_code_contract(tmp_path, capsys):
    text = assets.body_table_path().read_text(encoding="utf-8")
    face = next(line for line in text.splitlines()
                if line.startswith("Face,"))
    cells = face.split(",")
    sweep, scenario = tmp_path / "sweep.yaml", tmp_path / "filter.yaml"
    sweep.write_text(_yaml(SWEEP_BASE), encoding="utf-8")
    scenario.write_text("duration: 0.01\n", encoding="utf-8")
    # each command over the table, with the JSON artefact it writes
    commands = {"sweep": ("fig_boxstats.json", "--config", str(sweep)),
                "limits": ("limits.json", "--format", "json"),
                "filter": ("filter_summary.json", "--scenario", str(scenario))}
    table, out = tmp_path / "body.csv", tmp_path / "out"
    broken = []
    for column in range(len(cells)):
        for value in CELL_VALUES:
            row = cells[:column] + [value] + cells[column + 1:]
            table.write_text(text.replace(face, ",".join(row)),
                             encoding="utf-8")
            for command, (artefact, *flags) in commands.items():
                argv = [command, "--body-table", str(table), *flags,
                        "--out", str(out / command)]
                reason, err = _breach(argv, capsys, out / command / artefact)
                if reason:
                    broken.append((command, row, reason, err))
    assert broken == []


#: the filter scenario keys that take a number (some also take a word)
FILTER_NUMBER_KEYS = ("contact_area", "robot_mass", "payload", "plant_mass",
                      "budget", "duration", "period", "gain", "power_cap",
                      "nominal_speed")

#: the other filter scenario keys
FILTER_OTHER_KEYS = ("region", "mode", "recycling", "velocity_filter")


def _filter_cases() -> list[dict[str, str]]:
    """A 0.01 s filter scenario with one key set to each of ``YAML_VALUES``,
    or one pair of number keys set to each pair of ``PAIRED``."""
    base = {"duration": "0.01"}
    cases = [dict(base, **{key: value})
             for key in FILTER_NUMBER_KEYS + FILTER_OTHER_KEYS
             for value in YAML_VALUES]
    for pair in itertools.combinations(FILTER_NUMBER_KEYS, 2):
        cases += [dict(base, **dict(zip(pair, values)))
                  for values in itertools.product(PAIRED, repeat=2)]
    return cases


def test_filter_scenario_keeps_the_exit_code_contract(tmp_path, capsys):
    cases = _filter_cases()
    assert len(cases) == 14 * len(YAML_VALUES) + 45 * len(PAIRED) ** 2
    scenario, out = tmp_path / "filter.yaml", tmp_path / "out"
    broken = []
    for case in cases:
        scenario.write_text(_yaml(case), encoding="utf-8")
        reason, err = _breach(["filter", "--scenario", str(scenario),
                               "--out", str(out)], capsys,
                              out / "filter_summary.json")
        if reason:
            broken.append((case, reason, err))
    assert broken == []


def test_limits_flags_keep_the_exit_code_contract(tmp_path, capsys):
    out = tmp_path / "out"
    broken = []
    for flag, value in itertools.product(("--mass", "--payload", "--area"),
                                         ALONE):
        reason, err = _breach(["limits", flag, value, "--format", "json",
                               "--out", str(out)], capsys, out / "limits.json")
        if reason:
            broken.append((flag, value, reason, err))
    assert broken == []
