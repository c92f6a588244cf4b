"""Input schemas: one YAML reader, one error class per exit code, and
documented keys that match the code."""
import ast
import dataclasses
import re
from pathlib import Path

from pflsafe.cli import FilterScenario
from pflsafe.sweep import SweepConfig

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
