"""Input schemas: one YAML reader, one number rule for files and library
arguments, one error class per exit code, and documented keys that match
the code."""
import argparse
import ast
import collections
import dataclasses
import io
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from pflsafe import (BodyRegionParams, CollisionScenario, ContactMode,
                     InputError, ReflectedMassQuery, TankState,
                     body_table_path, compute_limit,
                     effective_force_limit, inverse_kinematics,
                     iso_effective_mass, load_body_table, load_robot_model,
                     reflected_mass, robot_model_path, simulate_loop,
                     tank_init, tank_step, v0_max, velocity_bounds)
from pflsafe.body import binding_criterion
from pflsafe.dynamics import FLANGE_DOWN
from pflsafe.cli import FilterScenario, _build_parser
from pflsafe.schema import (CSV_BLOCK_ROWS, MAX_YAML_OPENERS, _Loader,
                            distinct_cells, read_mapping, write_csv,
                            write_json)
from pflsafe.svgplot import _fmt
from pflsafe.sweep import SweepConfig, horizontal_directions, sphere_directions
from test_cli import EXPONENT_CONFIG, EXPONENT_SCENARIO
from test_dynamics import TWO_R_YAML

ROOT = Path(__file__).resolve().parent.parent


def test_yaml_is_imported_by_one_module():
    importers = [path.name for path in sorted((ROOT / "src/pflsafe").glob("*.py"))
                 if re.search(r"^\s*(import|from) yaml\b",
                              path.read_text(encoding="utf-8"), re.MULTILINE)]
    assert importers == ["schema.py"]


class _PureLoader(yaml.SafeLoader):
    """The pure-Python parser, with the same YAML 1.2 float resolver."""


_PureLoader.yaml_implicit_resolvers = _Loader.yaml_implicit_resolvers


@pytest.mark.parametrize("text", [
    robot_model_path().read_text(encoding="utf-8"), TWO_R_YAML,
    EXPONENT_CONFIG, EXPONENT_SCENARIO,
], ids=["panda", "two-r", "sweep-config", "filter-scenario"])
def test_the_loader_parses_as_the_pure_python_loader(text):
    parsed = yaml.load(text, Loader=_Loader)
    assert parsed == yaml.load(text, Loader=_PureLoader)
    assert parsed  # a non-empty mapping, not two equal Nones


def test_the_loader_is_libyaml_where_pyyaml_has_it():
    assert issubclass(_Loader, getattr(yaml, "CSafeLoader", ())) == \
        yaml.__with_libyaml__


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="the cap bounds libyaml's recursion")
def test_a_text_at_the_nesting_cap_parses():
    # the key's colon is the last of the MAX_YAML_OPENERS characters
    depth = MAX_YAML_OPENERS - 1
    raw = read_mapping(io.StringIO("a: " + "[" * depth + "]" * depth),
                       "text", ["a"])
    level, inner = 1, raw["a"]
    while inner:
        level, inner = level + 1, inner[0]
    assert level == depth


def test_a_deep_text_is_bad_input_for_the_pure_python_parser(monkeypatch):
    # the pure-Python parser recurses per level and runs out of Python
    # stack from about 600 levels, far under the nesting cap
    monkeypatch.setattr("pflsafe.schema._Loader", _PureLoader)
    depth = 600
    with pytest.raises(InputError, match="^text: invalid YAML: "):
        read_mapping(io.StringIO("a: " + "[" * depth + "]" * depth),
                     "text", ["a"])


def test_a_lone_surrogate_is_not_utf8_text():
    # libyaml encodes a str to UTF-8 before it parses, which a surrogate
    # code point cannot be: it must fail as bad input, not as a crash
    with pytest.raises(InputError, match="<stream>: not UTF-8 text"):
        load_robot_model(io.StringIO("a: \ud800"))


def _readme_keys(label: str, name: str = r"\w+") -> list[str]:
    """The backquoted names in the README sentence that starts with ``label``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index(label + ":")
    return re.findall(rf"`({name})`", text[start:text.index(".", start)])


def test_readme_lists_every_config_key():
    assert _readme_keys("Sweep config keys") == [
        f.name for f in dataclasses.fields(SweepConfig)]
    assert _readme_keys("Filter scenario keys") == [
        f.name for f in dataclasses.fields(FilterScenario)]
    # and every flag of every subcommand, so a removed one leaves the docs
    subcommands, = [action.choices for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    for command, parser in subcommands.items():
        assert _readme_keys(f"`{command}` flags", r"--[\w-]+") == [
            action.option_strings[-1] for action in parser._actions
            if action.dest != "help"]


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src/pflsafe").glob("*.py"))}


def _name(node) -> str:
    """The class an ``raise``/``except`` names: ``X``, ``X(...)``, ``m.X``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else node.id


def test_one_error_class_per_exit_code():
    modules = _modules()
    classes = {name: [node for node in ast.walk(tree)
                      if isinstance(node, ast.ClassDef)]
               for name, tree in modules.items()}
    assert [node.name for node in classes.pop("errors.py")] == [
        "PflError", "InputError", "NumericalError"]
    exception_classes = [
        f"{name}: {node.name}" for name, nodes in classes.items()
        for node in nodes for base in node.bases
        if _name(base).endswith(("Error", "Exception"))]
    assert exception_classes == []
    # svgplot.py is dependency-free and raises ValueError
    stray_raises = [
        f"{name}:{node.lineno}: {_name(node.exc)}"
        for name, tree in modules.items() if name != "svgplot.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and _name(node.exc) not in ("InputError", "NumericalError")]
    assert stray_raises == []
    caught = [_name(kind) for node in ast.walk(modules["cli.py"])
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for kind in (node.type.elts if isinstance(node.type, ast.Tuple)
                           else [node.type])]
    assert "KeyError" not in caught


#: the checks on derived quantities that may call math.isfinite outside
#: schema.py, with their count: each message names the inputs whose
#: product or sum overflowed, which no single argument shows
DERIVED_CHECKS = {
    "cli.py: _cmd_filter": 1,                            # the chart's y range
    "collision.py: CollisionScenario.__post_init__": 3,  # impact, peak state
    "limits.py: compute_limit": 1,                       # k0_max
    "safety_filter.py: simulate_loop": 1,                # the power of a step
    "svgplot.py: line_chart": 1,                         # an axis range hi - lo
}


def _isfinite_scopes(tree: ast.AST, scope: str = ""):
    """The function (``Class.method``) around each use of math.isfinite."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _isfinite_scopes(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if (isinstance(node, ast.Attribute)
                and ast.unparse(node) == "math.isfinite") or (
                isinstance(node, ast.alias) and node.name == "isfinite"):
            yield scope
        yield from _isfinite_scopes(node, scope)


def test_numbers_are_checked_by_schema_number():
    # a library argument goes through schema.number, never a hand-written
    # math.isfinite test
    found = collections.Counter(
        f"{name}: {scope}" for name, tree in _modules().items()
        if name != "schema.py" for scope in _isfinite_scopes(tree))
    assert found == DERIVED_CHECKS


TABLE = load_body_table(body_table_path())
FACE = TABLE["face"]
FREE = CollisionScenario(m_r=3.0, m_h=1.0, k=5.0, v0=1.0)
FACE_LIMIT = compute_limit(TABLE, "face", ContactMode.TRANSIENT, 5.0)
PANDA = load_robot_model(robot_model_path())


def _face(**field) -> BodyRegionParams:
    return BodyRegionParams(**dict(dataclasses.asdict(FACE), **field))


def _loop(mass: float = 1.0, budget: float = 1.0, duration: float = 0.01,
          period: float = 1e-3, **options):
    return simulate_loop(FACE_LIMIT, mass, lambda t: 0.0, budget, duration,
                         period, **options)


def _entry(x, base) -> np.ndarray:
    """``base`` as a float array whose first entry is ``x``; for ``True``, a
    bool array."""
    array = np.array(base, dtype=bool if x is True else float)
    array.flat[0] = x
    return array


Q0, TARGET = np.zeros(PANDA.n), [0.4, 0.1, 0.5]
U2, M2, H2 = np.array([0.5, 0.7]), np.array([3.0, 2.0]), np.array([1.0, 4.0])

#: (callable, key, call with the key's value, an out-of-bound value, the
#: value nearest the bound that it accepts or None); an array argument gets
#: the value in one entry
LIBRARY_NUMBERS = [
    ("BodyRegionParams", "f_max_qs", lambda x: _face(f_max_qs=x), 0.0, None),
    ("BodyRegionParams", "p_max_qs", lambda x: _face(p_max_qs=x), -1.0, None),
    ("BodyRegionParams", "stiffness", lambda x: _face(stiffness=x), 0.0, None),
    ("BodyRegionParams", "m_h", lambda x: _face(m_h=x), 0.0, math.inf),
    ("BodyRegionParams", "transient_mult",
     lambda x: _face(transient_multiplier=x), 0.5, 1.0),
    ("binding_criterion", "contact_area",
     lambda x: binding_criterion(FACE, x), 0.0, None),
    ("effective_force_limit", "contact_area",
     lambda x: effective_force_limit(FACE, ContactMode.TRANSIENT, x),
     -1.0, None),
    ("CollisionScenario", "m_r",
     lambda x: dataclasses.replace(FREE, m_r=x), 0.0, None),
    ("CollisionScenario", "m_h",
     lambda x: dataclasses.replace(FREE, m_h=x), -1.0, math.inf),
    ("CollisionScenario", "k", lambda x: dataclasses.replace(FREE, k=x),
     0.0, None),
    ("CollisionScenario", "v0", lambda x: dataclasses.replace(FREE, v0=x),
     -0.2, 0.0),
    ("v0_max", "u_s_max", lambda x: v0_max(x, 3.0, 1.0), 0.0, None),
    ("v0_max", "m_h", lambda x: v0_max(0.5, 3.0, x), 0.0, math.inf),
    ("velocity_bounds", "u_s_max", lambda x: velocity_bounds(x, 3.0, 1.0),
     0.0, None),
    ("velocity_bounds", "m_r", lambda x: velocity_bounds(0.5, x, 1.0),
     0.0, None),
    ("velocity_bounds", "m_h", lambda x: velocity_bounds(0.5, 3.0, x),
     -1.0, math.inf),
    ("compute_limit", "robot_mass",
     lambda x: compute_limit(TABLE, "face", ContactMode.TRANSIENT, x),
     0.0, None),
    ("TankState", "energy",
     lambda x: TankState(energy=x, initial_budget=1.0), -1.0, 0.0),
    ("TankState", "initial_budget",
     lambda x: TankState(energy=0.0, initial_budget=x), -1.0, 0.0),
    ("tank_step", "dt", lambda x: tank_step(tank_init(1.0), 5.0, x),
     0.0, None),
    ("tank_step", "requested_power",
     lambda x: tank_step(tank_init(1.0), x, 1e-3), math.inf, None),
    ("tank_step", "power_cap",
     lambda x: tank_step(tank_init(1.0), 5.0, 1e-3, power_cap=x),
     -1.0, None),
    ("simulate_loop", "mass", lambda x: _loop(mass=x), 0.0, None),
    ("simulate_loop", "budget", lambda x: _loop(budget=x), -1.0, 0.0),
    ("simulate_loop", "duration", lambda x: _loop(duration=x), 0.0, None),
    ("simulate_loop", "period", lambda x: _loop(period=x), 0.0, None),
    ("simulate_loop", "power_cap", lambda x: _loop(power_cap=x), 0.0, None),
    ("simulate_loop", "gain", lambda x: _loop(gain=x), -1.0, None),
    ("iso_effective_mass", "payload",
     lambda x: iso_effective_mass(PANDA, payload=x), -1.0, 0.0),
    ("sphere_directions", "n", sphere_directions, 0, 1),
    ("horizontal_directions", "n", horizontal_directions, 0, 1),
    ("reflected_mass", "q", lambda x: reflected_mass(
        PANDA, ReflectedMassQuery(q=_entry(x, Q0), u=[1.0, 0.0, 0.0])),
     math.inf, None),
    ("ReflectedMassQuery", "u",
     lambda x: ReflectedMassQuery(q=Q0, u=_entry(x, [0.0, 0.0, 1.0])),
     -math.inf, None),
    ("inverse_kinematics", "target",
     lambda x: inverse_kinematics(PANDA, _entry(x, TARGET), Q0), math.inf, None),
    ("inverse_kinematics", "seed",
     lambda x: inverse_kinematics(PANDA, TARGET, _entry(x, Q0)), math.inf, None),
    ("inverse_kinematics", "targets",
     lambda x: inverse_kinematics(PANDA, _entry(x, [TARGET]), [Q0]),
     math.inf, None),
    ("inverse_kinematics", "seeds",
     lambda x: inverse_kinematics(PANDA, [TARGET], _entry(x, [Q0])),
     -math.inf, None),
    ("inverse_kinematics", "orientation",
     lambda x: inverse_kinematics(PANDA, [TARGET], [Q0],
                                  _entry(x, FLANGE_DOWN)),
     math.inf, None),
    ("v0_max_array", "u_s_max", lambda x: v0_max(_entry(x, U2), M2, H2),
     0.0, 5e-324),
    ("v0_max_array", "m_r", lambda x: v0_max(U2, _entry(x, M2), H2),
     0.0, math.inf),
    ("v0_max_array", "m_h", lambda x: v0_max(U2, M2, _entry(x, H2)),
     -1.0, math.inf),
    ("velocity_bounds_array", "u_s_max",
     lambda x: velocity_bounds(_entry(x, U2), M2, H2), 0.0, 5e-324),
    ("velocity_bounds_array", "m_r",
     lambda x: velocity_bounds(U2, _entry(x, M2), H2), 0.0, None),
    ("velocity_bounds_array", "m_h",
     lambda x: velocity_bounds(U2, M2, _entry(x, H2)), -1.0, math.inf),
]


@pytest.mark.parametrize("key, call, bad, boundary", [
    pytest.param(*row[1:], id=f"{row[0]}-{row[1]}") for row in LIBRARY_NUMBERS])
def test_library_numbers_follow_the_file_rule(key, call, bad, boundary):
    for value in (math.nan, True, bad):
        with pytest.raises(InputError, match=rf"^\w+: {key} must be "):
            call(value)
    if boundary is not None:
        call(boundary)


#: JSON scalars with a text of their own: signed zeros, the float extremes,
#: the non-finite constants, a float subclass, escapes and non-ASCII text
JSON_SCALARS = (None, True, False, 0, -1, 2 ** 70, 0.0, -0.0, 5e-324, 1e308,
                -1.75e308, 0.1, math.nan, math.inf, -math.inf,
                np.float64(2.5), "", "a", 'q"\\/\n\t\x00', "Schädel 力 \U0001f600")

#: dict key kinds that sort among themselves
JSON_KEYS = ((lambda rng: rng.choice(["", "a", "b", "é", "\n", "Z"])
              + str(rng.randrange(5))),
             lambda rng: rng.randrange(-3, 4),
             lambda rng: rng.choice([0.5, -0.0, 1e300, 5e-324, math.inf, 2]),
             lambda rng: rng.random() < 0.5)


def _json_object(rng: random.Random, depth: int = 0):
    """A random JSON value: scalars, and below depth 4 dicts, lists and
    tuples of 0-4 items, some nested and some of scalars only."""
    kind = rng.randrange(6 if depth < 4 else 1)
    if kind == 0:
        return rng.choice(JSON_SCALARS + (rng.uniform(-1e3, 1e3),))
    items = [_json_object(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind in (1, 2):
        key = rng.choice(JSON_KEYS[:1] if kind == 1 else JSON_KEYS)
        return {key(rng): item for item in items}
    return items if kind in (3, 4) else tuple(items)


@pytest.mark.parametrize("seed", range(4))
def test_write_json_writes_the_indenting_encoders_text(tmp_path, seed):
    rng = random.Random(seed)
    path = tmp_path / "out.json"
    for _ in range(300):
        obj = _json_object(rng)
        write_json(obj, path)
        assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True)
                                     + "\n").encode("utf-8"), obj


def _self_containing() -> dict:
    obj = {}
    obj["a"] = [obj]
    return obj


@pytest.mark.parametrize("obj", [
    {"a": [1, {2, 3}]},                   # a set is not JSON
    {"a": {1: [1], "1": [2]}},            # keys that do not sort together
    {"a": {(1, 2): [1]}},                 # a key that is not a scalar
    _self_containing(),                   # a circular reference
], ids=["set", "mixed-keys", "tuple-key", "self-containing"])
def test_write_json_rejects_what_json_rejects(tmp_path, obj):
    with pytest.raises(Exception) as expected:
        json.dumps(obj, indent=2, sort_keys=True)
    path = tmp_path / "out.json"
    with pytest.raises(Exception) as raised:
        write_json(obj, path)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)
    assert not path.exists()  # the text is built before the file is opened


#: columns for the dedup kernel: its no-repeat path and its gather path
DISTINCT_COLUMNS = {
    "no-repeats": np.linspace(-1.0, 1.0, 37) ** 3,
    "repeats": np.resize([0.1, 0.2, 0.1, 3.0, 1e308, 0.2], 50),
    "signed-zeros": np.array([-0.0, 0.0, -0.0, 1.0, 0.0]),
    "signed-zeros-no-repeat": np.array([0.0, -0.0]),
    "subnormals": np.array([5e-324, -5e-324, 2.5e-320, 5e-324, 1e-310,
                            2.2250738585072009e-308]),
    "one": np.array([0.1]),
    "empty": np.array([], dtype=float),
}


@pytest.mark.parametrize("fmt", [repr, _fmt], ids=["repr", "svg"])
@pytest.mark.parametrize("column", DISTINCT_COLUMNS.values(),
                         ids=DISTINCT_COLUMNS.keys())
def test_distinct_cells_formats_each_entry(column, fmt):
    assert distinct_cells(column, fmt) == list(map(fmt, column.tolist()))


def _row_by_row_csv(header, columns) -> bytes:
    """The reference writer: one line per row, each value's ``repr``."""
    n = min(map(len, columns), default=0)
    lines = [",".join(header)] + [
        ",".join(repr(float(column[i])) for column in columns)
        for i in range(n)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _csv_columns(rows: int, repeats: bool) -> list:
    rng = np.random.default_rng(rows)
    scales = 10.0 ** rng.integers(-300, 300, rows + 3)
    if not repeats:  # a time axis and random values over 600 decades
        return [0.01 * np.arange(rows) + 0.005,
                rng.normal(size=rows + 3) * scales]
    # a time axis, two columns equal to each other and to the time axis's
    # first value, values drawn from a pool with both zeros and a subnormal,
    # values over 600 decades, a strided view and a list of ints, all of
    # unequal length: the shortest decides the rows
    pool = np.array([-0.0, 0.0, 5e-324, 0.1, 0.25, -1e308, 1.0])
    return [0.01 * np.arange(rows), np.zeros(rows + 1), np.zeros(rows + 7),
            rng.choice(pool, rows + 2), rng.normal(size=rows + 3) * scales,
            rng.normal(size=2 * rows + 4)[::2], list(range(rows + 600))]


@pytest.mark.parametrize("repeats", [True, False],
                         ids=["repeats", "no-repeats"])
@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                  CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1])
def test_write_csv_matches_the_row_by_row_writer(tmp_path, rows, repeats):
    columns = _csv_columns(rows, repeats)
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == _row_by_row_csv(header, columns)
    assert len(path.read_bytes().splitlines()) == 1 + rows
