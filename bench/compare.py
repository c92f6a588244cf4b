#!/usr/bin/env python3
"""Print the metrics of two benchmark runs side by side.

    python3 bench/compare.py BASE.json OTHER.json

Each file is a result that bench/run.py saved in bench/results/ (or its
captured stdout: the last line is read).  Comparing two traced runs shows
which layer a change moved.  Each row gives the metric's unit, the base
value, the other value and the ratio other/base.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8").strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, other = (load(p)["metrics"] for p in argv)
    names = list(base) + [n for n in other if n not in base]
    width = max(map(len, names))
    print(f"{'metric':<{width}}  {'unit':<6} {'base':>14} {'other':>14} {'other/base':>10}")
    for name in names:
        b = base.get(name, {}).get("value")
        o = other.get(name, {}).get("value")
        unit = (base.get(name) or other.get(name))["unit"]
        ratio = f"{o / b:10.3f}" if b and o is not None else f"{'-':>10}"
        cells = [f"{v:14.6g}" if v is not None else f"{'-':>14}" for v in (b, o)]
        print(f"{name:<{width}}  {unit:<6} {cells[0]} {cells[1]} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
