"""Input formats: one text reader, one YAML reader, one rule per kind of value.

YAML numbers follow YAML 1.2 (``1e-3`` is a float), an empty file is an empty
mapping and an unknown key is an error.  A malformed, non-finite or
out-of-bound value, in a file or a library argument (``number``, which
checks an array entry by entry), raises ``InputError`` reading
``{what}: {key} must be ...``: the CLI exits 3.
"""
from __future__ import annotations

import json
import math
import numbers
import re
from pathlib import Path
from typing import IO, Iterable, Union

import numpy as np
import yaml

from .errors import InputError

Source = Union[str, Path, bytes, IO[str], IO[bytes]]


def read_text(source: Source) -> str:
    """The text of a path, byte string or open stream."""
    if isinstance(source, (str, Path)):
        data, label = Path(source).read_bytes(), Path(source).name
    elif isinstance(source, bytes):
        data, label = source, "<bytes>"
    else:
        data, label = source.read(), str(getattr(source, "name", "<stream>"))
    try:
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise InputError(f"{label}: not UTF-8 text: {exc}") from None


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads an exponent without a dot (``1e-3``) as a float."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"))


def read_mapping(source: Source, what: str, known: Iterable[str]) -> dict:
    """Top-level mapping of a YAML file, with keys from ``known``."""
    text = read_text(source)
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise InputError(f"{what}: invalid YAML: {exc}") from None
    return mapping(what, {} if raw is None else raw, known)


def mapping(what: str, value, known: Iterable[str]) -> dict:
    """``value`` as a mapping whose keys all come from ``known``."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a mapping, got {value!r}")
    unknown = set(value) - set(known)
    if unknown:
        raise InputError(f"{what}: unknown keys {sorted(unknown, key=str)}")
    return value


def number(what: str, key: str, value, *, integral: bool = False,
           allow_inf: bool = False, gt: float | None = None,
           ge: float | None = None):
    """``value`` as a float (an int if ``integral``): never a bool or NaN.

    An ``ndarray`` of numbers comes back as a float array, every entry held
    to the same rule: a NaN entry makes its minimum NaN, so the minimum and
    the maximum break the rule whenever an entry does.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iuf":  # no bool, text or object entries
            raise InputError(f"{what}: {key} must be numbers, got {value.dtype} entries")
        value = value.astype(float, copy=False)
        for entry in (value.min(), value.max()) if value.size else ():
            number(what, key, float(entry), allow_inf=allow_inf, gt=gt, ge=ge)
        return value
    if integral or type(value) is not float:  # a float needs no conversion
        kind = numbers.Integral if integral else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InputError(f"{what}: {key} must be "
                             f"{'an integer' if integral else 'a number'}, "
                             f"got {value!r}")
        try:
            value = int(value) if integral else float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf if value > 0 else -math.inf
    if not (integral or math.isfinite(value)) and (math.isnan(value)
                                                   or not allow_inf):
        raise InputError(f"{what}: {key} must be finite, got {value!r}")
    if gt is not None and not value > gt:
        raise InputError(f"{what}: {key} must be > {gt}, got {value!r}")
    if ge is not None and not value >= ge:
        raise InputError(f"{what}: {key} must be >= {ge}, got {value!r}")
    return value


def vector3(what: str, key: str, value) -> np.ndarray:
    """Three finite numbers as a float array, or an error naming ``key``."""
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) != 3:
        raise InputError(f"{what}: {key} must be three numbers, got {value!r}")
    return np.array([number(what, key, v) for v in value])


def text(what: str, key: str, value) -> str:
    """A YAML string; a number, list or null is not one."""
    if not isinstance(value, str):
        raise InputError(f"{what}: {key} must be a string, got {value!r}")
    return value


def flag(what: str, key: str, value) -> bool:
    """A YAML boolean; a quoted ``"false"`` is not one."""
    if not isinstance(value, bool):
        raise InputError(f"{what}: {key} must be true or false, got {value!r}")
    return value


def write_json(obj, path: str | Path) -> None:
    """Write ``obj`` as sorted, 2-space-indented JSON and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
