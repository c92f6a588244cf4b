#!/usr/bin/env python3
"""Build bench/pools.json, the boxes the sweep workloads draw from.

    python3 bench/make_pools.py        # about 5 minutes on 2 cores

sweep-boundary draws 16-point boxes (2 x-points by 4 y by 2 z, 8 scanlines)
from the a07 grid (-0.8..0.8 x -0.8..0.8 x 0.05..1.0 m, 10 cm).  Every
scanline of such a box starts its IK chain afresh, so the outcome of each
2-point scanline segment is computed once here, exactly as a sweep chains
it, and boxes are classified by the sum of their segments:

  reach:  10 reachable, 6 unreachable inside the chain-length bound
  bound:  2 reachable, 6 unreachable outside that bound, 8 inside it
          (a sweep with no reachable point fails, so every box keeps some)

with as many failures in one z layer (one pool chunk, one worker) as in
the other, since a failed IK costs a full 200 iterations and the slower
worker sets a job's time.  A round takes 2 reach and 1 bound box: 48
points of which 22 are reachable, 6 fail outside the bound and 20 inside,
close to a07's mix (1,321 / 396 / 1,173 of 2,890).  Each chosen box is
then swept once with the program to confirm its counts.

sweep-reachable draws 3 x 3 x 2 boxes (5 cm) inside 0.25..0.55 x
0.15..0.45 x 0.25..0.45 m; all 100 of them are swept and kept only if
every point converges.
"""
from __future__ import annotations

import json
import math
import sys
from multiprocessing import get_context
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

from pflsafe import assets, load_body_table, load_robot_model  # noqa: E402
from pflsafe.dynamics import FLANGE_DOWN, inverse_kinematics  # noqa: E402
from pflsafe.sweep import SweepConfig, run_sweep  # noqa: E402

SHOULDER = (0.0, 0.0, 0.333)
REACH = 0.9863          # chain-length bound of the packaged arm [m]
MODEL = load_robot_model(assets.robot_model_path())
TABLE = load_body_table(assets.body_table_path())
#: a sweep starts every scanline from the middle of the joint ranges
SEED = 0.5 * (MODEL.lower_limits + MODEL.upper_limits)


def _coord(origin: float, index: int, spacing: float) -> float:
    return round(origin + spacing * index, 10)


def segment(start: tuple[int, int, int]) -> list[tuple[bool, bool]]:
    """(converged, outside the bound) for a 2-point a07 scanline segment."""
    i, j, k = start
    y, z = _coord(-0.8, j, 0.1), _coord(0.05, k, 0.1)
    q = SEED
    out = []
    for x in (_coord(-0.8, i, 0.1), _coord(-0.8, i, 0.1) + 0.1):
        ik = inverse_kinematics(MODEL, np.array([x, y, z]), q,
                                orientation=FLANGE_DOWN)
        if ik.success:
            q = ik.q
        out.append((ik.success, math.dist((x, y, z), SHOULDER) > REACH))
    return out


def sweep_counts(box: dict, spacing: float) -> tuple[int, int]:
    result = run_sweep(MODEL, TABLE, SweepConfig(
        box_min=tuple(box["min"]), box_max=tuple(box["max"]),
        grid_spacing=spacing, n_directions=1))
    return result.n_grid, result.n_reachable


def _check_boundary(box: dict) -> tuple[int, int]:
    return sweep_counts(box, 0.1)


def _check_reachable(box: dict) -> tuple[int, int]:
    return sweep_counts(box, 0.05)


def main() -> int:
    starts = [(i, j, k) for i in range(16) for j in range(17) for k in range(10)]
    with get_context("spawn").Pool(2) as pool:
        segs = dict(zip(starts, pool.map(segment, starts, chunksize=16)))

        classes = {"reach": (10, 0, 6), "bound": (2, 6, 8)}
        groups = {name: [] for name in classes}
        for i in range(16):
            for j in range(14):
                for k in range(9):
                    layer_fails = [0, 0]
                    ok = out = inside = 0
                    for dz in range(2):
                        for dy in range(4):
                            for converged, outside in segs[(i, j + dy, k + dz)]:
                                ok += converged
                                out += not converged and outside
                                inside += not converged and not outside
                                layer_fails[dz] += not converged
                    if layer_fails[0] != layer_fails[1]:
                        continue
                    for name, want in classes.items():
                        if (ok, out, inside) == want:
                            groups[name].append({
                                "min": [_coord(-0.8, i, 0.1), _coord(-0.8, j, 0.1),
                                        _coord(0.05, k, 0.1)],
                                "max": [_coord(-0.8, i + 1, 0.1),
                                        _coord(-0.8, j + 3, 0.1),
                                        _coord(0.05, k + 1, 0.1)],
                                "reachable": ok, "fail_outside": out,
                                "fail_inside": inside})

        for name, boxes in groups.items():
            counts = pool.map(_check_boundary, boxes)
            groups[name] = [b for b, c in zip(boxes, counts)
                            if c == (16, b["reachable"])]
            print(f"boundary {name}: {len(groups[name])} of {len(boxes)} boxes "
                  f"confirmed", file=sys.stderr)

        candidates = [{"min": [_coord(0.25, i, 0.05), _coord(0.15, j, 0.05),
                               _coord(0.25, k, 0.05)],
                       "max": [_coord(0.25, i + 2, 0.05), _coord(0.15, j + 2, 0.05),
                               _coord(0.25, k + 1, 0.05)]}
                      for i in range(5) for j in range(5) for k in range(4)]
        counts = pool.map(_check_reachable, candidates)
        reachable = [b for b, c in zip(candidates, counts) if c == (18, 18)]
        print(f"reachable: {len(reachable)} of {len(candidates)} boxes",
              file=sys.stderr)

    pools = {
        "boundary": {
            "grid_spacing": 0.1, "n_directions": 20,
            "direction_style": "horizontal", "workers": 2,
            "all_reachable": False,
            "groups": [{"name": "reach", "take": 2, "boxes": groups["reach"]},
                       {"name": "bound", "take": 1, "boxes": groups["bound"]}]},
        "reachable": {
            "grid_spacing": 0.05, "n_directions": 40,
            "direction_style": "sphere", "workers": 1, "all_reachable": True,
            "groups": [{"name": "inner", "take": 3, "boxes": reachable}]},
        # cli-mix: one point (a reachable box's corner), four directions
        "probe": {"grid_spacing": 0.05, "n_directions": 4,
                  "direction_style": "horizontal", "workers": 1,
                  "all_reachable": True},
    }
    (BENCH / "pools.json").write_text(json.dumps(pools, indent=1) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
