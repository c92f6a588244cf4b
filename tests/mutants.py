"""Mutation run: does Tier-1 fail on each of a fixed list of small bugs?

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants only
    python tests/mutants.py --check      # only check each mutant's old text

The full run takes 14 minutes on a 2-CPU Xeon.

Each mutant is one edit (file, old text, new text) to one formula, constant
or condition of ``src/``.  The script copies the tree into a temporary
directory once, runs Tier-1 there unmutated, then for each mutant writes the
edited file, runs Tier-1 with ``-x`` (the first failure kills the mutant)
and restores the file.  The working tree is never written.  It prints
killed or survived per mutant, and the total.

A mutant marked equivalent changes no result any test could see; it carries
its one-line reason.  The run exits 1 if a mutant that is not marked
equivalent survives, or if an old text does not occur exactly once in its
file; ``--check`` makes only that second test, so that an edit of ``src/``
cannot silently leave a mutant with nothing to mutate.

pytest does not collect this file: its name does not start with ``test_``.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: the Tier-1 command, stopped at its first failure
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]

#: a mutant whose run takes this many times the unmutated run is killed
TIMEOUT_FACTOR = 5


class Mutant(NamedTuple):
    name: str
    path: str            # relative to the repository root
    old: str             # occurs exactly once in the file
    new: str
    equivalent: str = ""  # why no test can tell it apart, if none can


DYNAMICS = "src/pflsafe/dynamics.py"
LIMITS = "src/pflsafe/limits.py"
BODY = "src/pflsafe/body.py"
COLLISION = "src/pflsafe/collision.py"
FILTER = "src/pflsafe/safety_filter.py"
SWEEP = "src/pflsafe/sweep.py"
SCHEMA = "src/pflsafe/schema.py"
SVGPLOT = "src/pflsafe/svgplot.py"
INIT = "src/pflsafe/__init__.py"

MUTANTS = (
    # -- the kinematics and mass kernels
    Mutant("distal-columns", DYNAMICS,
           "jac[..., i, :, link + 1:] = 0.0",
           "jac[..., i, :, link + 2:] = 0.0"),
    Mutant("inertia-frame", DYNAMICS,
           "rots @ model.inertias @ rots.mT",
           "rots.mT @ model.inertias @ rots"),
    Mutant("com-unrotated", DYNAMICS,
           "(rots @ model.coms[:, :, None])[..., 0] + frames[..., :3, 3]",
           "model.coms + frames[..., :3, 3]"),
    Mutant("prismatic-origin-rot", DYNAMICS,
           "t[pri, :, :3, 3] = model.origins[pri, None, :3, 3] + (\n"
           "            model.origins[pri, None, :3, :3] @ slide[..., None])"
           "[..., 0]",
           "t[pri, :, :3, 3] = model.origins[pri, None, :3, 3] + slide"),
    Mutant("regularised-m", DYNAMICS,
           "np.linalg.solve(m, jac.mT)",
           "np.linalg.solve(m + 1e-4 * np.eye(model.n), jac.mT)"),
    Mutant("singular-guard", DYNAMICS,
           "where=s >= SINGULAR_GUARD)",
           "where=s >= 1e3 * SINGULAR_GUARD)"),
    Mutant("moving-mask", DYNAMICS,
           "sum(model.masses[model.moving].tolist())",
           "sum(model.masses.tolist())"),
    # -- inverse kinematics and its reach proof
    Mutant("ik-damping", DYNAMICS,
           "diagonal += IK_DAMPING * IK_DAMPING",
           "diagonal += IK_DAMPING"),
    Mutant("ik-step-clamp", DYNAMICS,
           "q + step * scale[:, None]",
           "q + step"),
    Mutant("ik-small-angle", DYNAMICS,
           "if angle < 1e-12:",
           "if angle < 1e-4:"),
    Mutant("reach-rounding-sign", DYNAMICS,
           "pos_tol += REACH_ROUNDING",
           "pos_tol -= REACH_ROUNDING"),
    Mutant("wrist-margin", DYNAMICS,
           "(ee_reach + math.hypot(*v)) * ori_tol",
           "ee_reach * ori_tol"),
    # -- the limit pipeline
    Mutant("v0max-without-mh", LIMITS,
           "(1.0 / m_r + 1.0 / m_h)",
           "(1.0 / m_r)"),
    Mutant("clamped-mh", LIMITS,
           "return math.inf if mode is ContactMode.QUASI_STATIC_CLAMPED "
           "else params.m_h",
           "return params.m_h"),
    Mutant("bounds-swap", LIMITS,
           "np.maximum(m_r, m_h), math.inf), upper",
           "np.maximum(m_r, m_h), 1e30), upper",
           equivalent="1/m_h moves by 1e-30 against 1/m_r of 1e-3 or more, "
                      "below the last bit of every tested bound"),
    Mutant("transient-on-free", BODY,
           "if mode is ContactMode.TRANSIENT:",
           "if mode is not ContactMode.QUASI_STATIC_CLAMPED:"),
    Mutant("binding-tie", BODY,
           "contact_area * params.p_max_qs < params.f_max_qs",
           "contact_area * params.p_max_qs <= params.f_max_qs"),
    Mutant("budget-k", BODY,
           "f_eff * f_eff / (2.0 * params.stiffness)",
           "f_eff * f_eff / params.stiffness"),
    # -- the collision model
    Mutant("rk4-fourth-stage", COLLISION,
           "f = k * (dx + h * d3)",
           "f = k * (dx + half * d3)"),
    Mutant("release-bisection-40", COLLISION,
           "for _ in range(80):",
           "for _ in range(40):"),
    Mutant("peak-vstar", COLLISION,
           "/ (scenario.m_r + scenario.m_h),",
           "/ (scenario.m_r + scenario.m_h + 1e-12),",
           equivalent="a relative change of about 1e-13 in v_star, inside "
                      "every tolerance the closed form is held to"),
    # -- the safety filter and its tank
    Mutant("clamp-le", FILTER,
           "np.where(x < v_max, x, v_max)",
           "np.where(x <= v_max, x, v_max)",
           equivalent="at x == v_max both pick the same value, and the "
                      "second where maps either zero to -0.0"),
    Mutant("tank-overfill", FILTER,
           "refill = min(-requested_power * dt, budget - energy)",
           "refill = -requested_power * dt"),
    Mutant("tank-power-cap", FILTER,
           "e_request = min(e_request, power_cap * dt)",
           "e_request = e_request"),
    Mutant("tank-cap-report", FILTER,
           "elif power_cap is not None and e_grant == power_cap * dt:",
           "elif False:"),
    Mutant("plant-update", FILTER,
           "v_next = v + force / m * dt",
           "v_next = v + force * dt"),
    Mutant("default-gain", FILTER,
           "gain = (20.0 * m if gain is None",
           "gain = (10.0 * m if gain is None"),
    Mutant("stall-before-tail", FILTER,
           "len(velocity) > max(tail, 1)",
           "len(velocity) > 1"),
    Mutant("stall-speed-only", FILTER,
           "_STATE.pack(v, energy, injected) == _STATE.pack(\n"
           "                    velocity[-2], tank_energy[-2], "
           "injected_cum[-2])",
           "v == velocity[-2]",
           equivalent="a constant-tail step that keeps the speed does no "
                      "work or empties the tank, after which every grant "
                      "is 0: the tank holds whenever the speed does"),
    # -- the sweep
    Mutant("cold-start", SWEEP,
           "q_seed = ik.q  # warm start",
           "q_seed = seed  # warm start"),
    Mutant("singular-threshold", SWEEP,
           "< SINGULAR_FLAG_THRESHOLD))",
           "< 10 * SINGULAR_FLAG_THRESHOLD))"),
    Mutant("whisker-1.6", SWEEP,
           "(q1 - 1.5 * iqr)",
           "(q1 - 1.6 * iqr)"),
    Mutant("sphere-offset", SWEEP,
           "z = 1.0 - 2.0 * (i + 0.5) / n",
           "z = 1.0 - 2.0 * i / n"),
    Mutant("horizontal-half-turn", SWEEP,
           "theta = 2.0 * math.pi * np.arange(n, dtype=float) / n",
           "theta = math.pi * np.arange(n, dtype=float) / n"),
    Mutant("worst-case-baseline", SWEEP,
           "100.0 * lowest[mode, source] / base_mean",
           "100.0 * lowest[BASELINE_COMBO] / base_mean"),
    Mutant("constant-guard-without-k0", SWEEP,
           "np.isfinite(0.5 * iso_mass * constant ** 2).all()",
           "np.isfinite(constant).all()"),
    Mutant("constant-rows-reversed", SWEEP,
           "for params, mode in rows:\n            compute_limit(",
           "for params, mode in reversed(rows):\n            compute_limit("),
    Mutant("sweep-csv-empty-row", SWEEP,
           "if len(row):",
           "if True:"),
    # -- the writers, the chart and the process set-up
    Mutant("distinct-cells-by-value", SCHEMA,
           "np.unique(column.view(np.int64), return_inverse=True)",
           "np.unique(column, return_inverse=True)"),
    Mutant("distinct-cells-always-gather", SCHEMA,
           "if len(bits) == len(column):",
           "if False:",
           equivalent="with no repeated bits, the gather through the index "
                      "gives each entry's own text, as the map does"),
    Mutant("csv-block-short", SCHEMA,
           "c[start:start + CSV_BLOCK_ROWS]",
           "c[start:start + CSV_BLOCK_ROWS - 1]"),
    Mutant("svg-format-7g", SVGPLOT,
           '_fmt = "{:.6g}".format',
           '_fmt = "{:.7g}".format'),
    Mutant("chart-x-scale", SVGPLOT,
           "(x - x_lo) / (x_hi - x_lo) * plot_w",
           "(x - x_lo) / (x_hi - x_lo) * plot_h"),
    Mutant("blas-after-numpy", INIT,
           'if "numpy" not in _sys.modules and not any(',
           "if not any("),
    Mutant("blas-omp-ignored", INIT,
           '("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")',
           '("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS")'),
)


def check(root: Path = ROOT) -> list[str]:
    """The problems of the mutant list against the tree at ``root``."""
    problems = []
    names = [m.name for m in MUTANTS]
    problems += [f"{name}: named twice" for name in sorted(set(names))
                 if names.count(name) > 1]
    for m in MUTANTS:
        count = (root / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in "
                            f"{m.path}")
        if m.old == m.new:
            problems.append(f"{m.name}: the new text is the old one")
    return problems


def _copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "out", "results",
        ".benchmarks"))


def _tier1(tree: Path, timeout: float | None) -> tuple[str, float]:
    """'passed', 'failed: <first failure>' or 'timeout', and the seconds."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               # an edit that keeps a file's size and second would otherwise
               # load the unmutated bytecode
               PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    try:
        done = subprocess.run(PYTEST, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - start
    seconds = time.monotonic() - start
    if done.returncode == 0:
        return "passed", seconds
    first = next((line for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))),
                 f"pytest exit code {done.returncode}")
    return f"failed: {first[:150]}", seconds


def run(mutants) -> int:
    survivors = []
    with tempfile.TemporaryDirectory(prefix="pflsafe-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        _copy_tree(tree)
        outcome, baseline = _tier1(tree, None)
        print(f"unmutated: {outcome} in {baseline:.1f} s", flush=True)
        if outcome != "passed":
            return 1
        for m in mutants:
            path = tree / m.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                outcome, seconds = _tier1(tree, TIMEOUT_FACTOR * baseline)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "survived" if outcome == "passed" else "killed"
            note = (f" (equivalent: {m.equivalent})" if m.equivalent
                    else "" if outcome == "passed" else f" ({outcome})")
            print(f"{m.name:24} {verdict:8} {seconds:6.1f} s{note}",
                  flush=True)
            if outcome == "passed" and not m.equivalent:
                survivors.append(m.name)
    equivalent = sum(1 for m in mutants if m.equivalent)
    print(f"{len(mutants)} mutants, {equivalent} marked equivalent; "
          f"unmarked survivors: {len(survivors)} {survivors}")
    return 1 if survivors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--check", action="store_true",
                        help="only check that each old text occurs once")
    args = parser.parse_args(argv)
    problems = check()
    for problem in problems:
        print(problem, file=sys.stderr)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if problems or unknown:
        if unknown:
            print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    if args.check:
        print(f"{len(MUTANTS)} mutants, each old text found once")
        return 0
    return run([m for m in MUTANTS if not args.names or m.name in args.names])


if __name__ == "__main__":
    sys.exit(main())
