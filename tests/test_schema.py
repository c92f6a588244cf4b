"""Input schemas: one YAML reader, and documented keys that match the code."""
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
