"""Input schemas: one YAML reader, one number rule for files and library
arguments, one error class per exit code, and documented keys that match
the code."""
import ast
import collections
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pflsafe import (BodyRegionParams, CollisionScenario, ContactMode,
                     FilterConfig, InputError, PlantState, ReflectedMassQuery,
                     TankState, body_table_path, compute_limit,
                     effective_force_limit, inverse_kinematics,
                     iso_effective_mass, load_body_table, load_robot_model,
                     reflected_mass, robot_model_path, simulate,
                     simulate_loop, tank_init, tank_step, v0_max,
                     velocity_bounds)
from pflsafe.body import binding_criterion
from pflsafe.dynamics import FLANGE_DOWN, ik_lockstep
from pflsafe.cli import FilterScenario
from pflsafe.sweep import SweepConfig, horizontal_directions, sphere_directions

ROOT = Path(__file__).resolve().parent.parent


def test_yaml_is_imported_by_one_module():
    importers = [path.name for path in sorted((ROOT / "src/pflsafe").glob("*.py"))
                 if re.search(r"^\s*(import|from) yaml\b",
                              path.read_text(encoding="utf-8"), re.MULTILINE)]
    assert importers == ["schema.py"]


def _readme_keys(label: str) -> list[str]:
    """The backquoted names in the README sentence that starts with ``label``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index(label + ":")
    return re.findall(r"`(\w+)`", text[start:text.index(".", start)])


def test_readme_lists_every_config_key():
    assert _readme_keys("Sweep config keys") == [
        f.name for f in dataclasses.fields(SweepConfig)]
    assert _readme_keys("Filter scenario keys") == [
        f.name for f in dataclasses.fields(FilterScenario)]


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
    "collision.py: CollisionScenario.__post_init__": 2,  # m_r v0, m_r v0^2/2
    "limits.py: compute_limit": 1,                       # k0_max
    "safety_filter.py: simulate_loop": 1,                # the work of a step
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
FILTER = FilterConfig(
    compute_limit(TABLE, "face", ContactMode.TRANSIENT, 5.0), period=1e-3)
PANDA = load_robot_model(robot_model_path())


def _face(**field) -> BodyRegionParams:
    return BodyRegionParams(**dict(dataclasses.asdict(FACE), **field))


def _loop(duration: float = 0.01, gain: float | None = None):
    return simulate_loop(PlantState(1.0), lambda t: 0.0, FILTER, tank_init(1.0),
                         duration, gain=gain)


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
    ("simulate", "dt", lambda x: simulate(FREE, dt=x), 0.0, None),
    ("simulate", "horizon", lambda x: simulate(FREE, horizon=x), -1.0, None),
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
    ("FilterConfig", "period",
     lambda x: FilterConfig(FILTER.speed_limit, period=x), 0.0, None),
    ("FilterConfig", "power_cap",
     lambda x: FilterConfig(FILTER.speed_limit, 1e-3, power_cap=x),
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
    ("PlantState", "mass", lambda x: PlantState(mass=x), 0.0, None),
    ("PlantState", "velocity", lambda x: PlantState(mass=1.0, velocity=x),
     math.inf, None),
    ("simulate_loop", "duration", lambda x: _loop(duration=x), 0.0, None),
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
    ("ik_lockstep", "targets",
     lambda x: ik_lockstep(PANDA, _entry(x, [TARGET]), [Q0]), math.inf, None),
    ("ik_lockstep", "seeds",
     lambda x: ik_lockstep(PANDA, [TARGET], _entry(x, [Q0])), -math.inf, None),
    ("ik_lockstep", "orientation",
     lambda x: ik_lockstep(PANDA, [TARGET], [Q0], _entry(x, FLANGE_DOWN)),
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
