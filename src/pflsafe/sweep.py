"""Workspace sweep: directional reflected mass -> speed-limit distributions.

A regular grid of tool positions is swept over a box.  Each grid point is
solved by inverse kinematics with the tool pointing straight down (one fixed
orientation, so distributions are comparable across points); unreachable
points are skipped and counted by cause.  ``inverse_kinematics`` rejects a
point before its first iteration when its flange-down pose puts the last
link's origin outside the arm's reach ball, or the wrist circle (the wrist
positions the last joint's turn leaves open) wholly outside the wrist's
reach; the rest that fail spend IK's whole budget.  A rejected point would
have failed anyway, and a failed point never moves the warm start, so the
proof changes run time only.  At every reachable point the directional
reflected mass is evaluated along a deterministic set of unit directions
(a Fibonacci sphere), and per body region the admissible speed limit is
computed twice per contact mode: once with the directional reflected mass
and once with the constant half-moving-mass convention.

Everything here is deterministic: the grid order, the direction set and the
warm-start chain are fixed, so reruns reproduce results bit for bit.  One
process solves every scanline in (z, y) order, and the converged points of
all of them are evaluated together.  ``n_workers`` is checked and recorded
but changes nothing.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .body import (BodyRegionTable, ContactMode, REGION_IDS, REGION_LABELS,
                   max_elastic_energy)
from .dynamics import (FLANGE_DOWN, ManipulatorModel, ReflectedMassQuery,
                       inverse_kinematics, iso_effective_mass, manipulability,
                       reflected_mass)
from .errors import InputError, NumericalError
from .limits import body_part_mass, compute_limit, v0_max
from .schema import number, vector3, write_json
from .svgplot import BoxStats

#: manipulability below which a configuration is flagged near-singular
SINGULAR_FLAG_THRESHOLD = 1e-6

#: most grid points x directions one sweep may evaluate (a07: 57,800)
MAX_SWEEP_EVALUATIONS = 5_000_000

#: most converged points one mass-kernel call evaluates: each takes about
#: 11 kB of temporaries for a 7-joint arm, so a block stays near 45 MB
MASS_BLOCK_POINTS = 4096

#: fewest samples per reflected-mass row for which the sample CSV formats
#: one text per distinct mass: below it, the partition's check costs more
#: than the repeated texts it saves (measured break-even 25-40 samples)
CSV_PARTITION_MIN_SAMPLES = 32


class MassSource(enum.Enum):
    """Which robot effective mass enters the speed limit."""

    REFLECTED = "reflected"   # directional m_u(q) at the contact point
    CONSTANT = "constant"     # half moving mass + payload

    __hash__ = object.__hash__  # a member is its own key: no name to hash


ALL_COMBOS: tuple[tuple[ContactMode, MassSource], ...] = tuple(
    (mode, source)
    for mode in (ContactMode.TRANSIENT, ContactMode.QUASI_STATIC_FREE,
                 ContactMode.QUASI_STATIC_CLAMPED)
    for source in (MassSource.REFLECTED, MassSource.CONSTANT))

BASELINE_COMBO = (ContactMode.TRANSIENT, MassSource.REFLECTED)

#: each pair's (mode, mass source) words in the artefacts, in ALL_COMBOS order
_COMBO_WORDS: Mapping[tuple[ContactMode, MassSource], tuple[str, str]] = {
    (mode, source): (mode.value, source.value) for mode, source in ALL_COMBOS}


@dataclass(frozen=True)
class SweepConfig:
    """Sweep geometry and evaluation options (distances in metres)."""

    box_min: tuple[float, float, float] = (-0.8, -0.8, 0.05)
    box_max: tuple[float, float, float] = (0.8, 0.8, 1.0)
    grid_spacing: float = 0.05
    n_directions: int = 20
    direction_style: str = "horizontal"
    contact_area: float = 1.0   # cm^2
    payload: float = 0.0        # kg
    n_workers: int = 1          # checked and recorded; changes nothing

    def __post_init__(self) -> None:
        # every check runs here, before any inverse kinematics is spent
        what = "sweep config"
        for name in ("box_min", "box_max"):
            corner = vector3(what, name, getattr(self, name))
            object.__setattr__(self, name, tuple(float(v) for v in corner))
        if not all(lo <= hi for lo, hi in zip(self.box_min, self.box_max)):
            raise InputError(f"box_min must be <= box_max, got "
                             f"{self.box_min} / {self.box_max}")
        number(what, "grid_spacing", self.grid_spacing, gt=0)
        number(what, "n_directions", self.n_directions, integral=True, ge=1)
        _direction_generator(self.direction_style)
        number(what, "contact_area", self.contact_area, gt=0)
        number(what, "payload", self.payload, ge=0)
        number(what, "n_workers", self.n_workers, integral=True, ge=1)


def sphere_directions(n: int) -> np.ndarray:
    """n unit vectors spread over the sphere (Fibonacci lattice), (n, 3)."""
    number("sphere_directions", "n", n, integral=True, ge=1)
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    golden_angle = math.pi * (3.0 - math.sqrt(5.0))
    theta = golden_angle * i
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def horizontal_directions(n: int) -> np.ndarray:
    """n unit vectors evenly spaced on the horizontal circle, (n, 3).

    The default impact directions: a person standing next to the arm is
    struck sideways at torso or head height, so the strike direction lies
    in the horizontal plane.  Vertical (downward) loading is the pressing
    case covered by the clamped contact mode, not by a free strike.
    """
    number("horizontal_directions", "n", n, integral=True, ge=1)
    theta = 2.0 * math.pi * np.arange(n, dtype=float) / n
    return np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])


_DIRECTION_STYLES = {
    "horizontal": horizontal_directions,
    "sphere": sphere_directions,
}


def _direction_generator(style: str):
    if not isinstance(style, str) or style not in _DIRECTION_STYLES:
        raise InputError(
            f"unknown direction style {style!r}; valid: "
            + ", ".join(sorted(_DIRECTION_STYLES)))
    return _DIRECTION_STYLES[style]


def direction_set(n: int, style: str = "horizontal") -> np.ndarray:
    """Deterministic direction set: ``horizontal`` circle or Fibonacci ``sphere``."""
    return _direction_generator(style)(n)


def summary_stats(samples: np.ndarray) -> BoxStats | tuple[BoxStats, ...]:
    """Box statistics of each row of a (K, N) stack, or one ``BoxStats`` of
    a 1-D sample (a batch of one).  Every row's are bit for bit those of its
    own 1-D call; its whiskers are masked extremes, so no row is copied."""
    stack = np.atleast_2d(np.asarray(samples, dtype=float))
    if stack.shape[-1] == 0:
        raise InputError("summary_stats: empty sample set")
    q1, med, q3 = np.percentile(stack, [25.0, 50.0, 75.0], axis=-1)
    iqr = q3 - q1
    inside = ((stack >= (q1 - 1.5 * iqr)[:, None])
              & (stack <= (q3 + 1.5 * iqr)[:, None]))
    stats = tuple(BoxStats(*row, n=stack.shape[-1]) for row in np.column_stack([
        np.mean(stack, axis=-1), q1, med, q3,
        np.min(stack, axis=-1, where=inside, initial=np.inf),
        np.max(stack, axis=-1, where=inside, initial=-np.inf),
        np.min(stack, axis=-1), np.max(stack, axis=-1)]).tolist())
    return stats if np.ndim(samples) == 2 else stats[0]


@dataclass(eq=False)
class SweepResult:
    config: SweepConfig
    iso_mass: float
    samples: dict[tuple[str, ContactMode, MassSource], np.ndarray]
    reflected_masses: np.ndarray      # (n_reachable, n_directions)
    n_grid: int
    n_reachable: int
    n_rejected: int                  # by the reach proof, before any IK
    n_budget_spent: int              # IK ran IK_MAX_ITER iterations
    ik_iterations: int               # over every grid point
    n_singular: int
    n_constrained_directions: int

    @cached_property
    def stats(self) -> dict[tuple[str, ContactMode], BoxStats]:
        """Box statistics of each (region, mode) reflected-mass distribution,
        from one stacked call on first use, which the JSON, SVG and scaling
        share; a constant-mass sample is its one value, ``samples[key][0]``."""
        keys = [key for key in self.samples if key[2] is MassSource.REFLECTED]
        return {key[:2]: box for key, box in zip(keys, summary_stats(
            np.stack([self.samples[key] for key in keys])))}


# ---------------------------------------------------------------- scanlines

def _sweep_scanline(model: ManipulatorModel, targets: np.ndarray,
                    seed: np.ndarray) -> tuple[tuple[int, ...],
                                               list[np.ndarray]]:
    """Solve one scanline (fixed y, z; x ascending) of grid points, each
    warm-started from the line's last converged point.  Returns the counts
    (rejected, budget spent, IK iterations) and the q of each converged
    point, in x order."""
    solved = []
    q_seed = seed
    rejected = budget_spent = iterations = 0
    for target in targets:
        ik = inverse_kinematics(model, target, q_seed, orientation=FLANGE_DOWN)
        iterations += ik.iterations
        if ik.success:
            q_seed = ik.q  # warm start for the next point on this line
            solved.append(ik.q)
        elif ik.iterations == 0:
            rejected += 1
        else:
            budget_spent += 1
    return (rejected, budget_spent, iterations), solved


def _default_seed(model: ManipulatorModel) -> np.ndarray:
    """The middle of each bounded joint's range, 0 for an unbounded one."""
    lower, upper = model.lower_limits, model.upper_limits
    bounded = np.isfinite(lower) & np.isfinite(upper)
    # halved first, so that no sum of two huge limits overflows
    return np.add(0.5 * lower, 0.5 * upper, out=np.zeros(model.n),
                  where=bounded)


def _constant_limits(table: BodyRegionTable, iso_mass: float,
                     contact_area: float) -> tuple[list, np.ndarray, np.ndarray,
                                                np.ndarray]:
    """The (region, mode) rows in table x mode order, and their budgets
    u_s_max, body-part masses m_h and constant-mass speed limits, each a
    (rows, 1) column from one broadcast ``v0_max`` call.  Where a row may
    fail, ``compute_limit`` runs row by row: the first failing row raises
    its own error."""
    rows = [(params, mode) for params in table for mode in ContactMode]
    try:
        u_s_max = np.array([[max_elastic_energy(params, mode, contact_area)]
                            for params, mode in rows])
        m_h = np.array([[body_part_mass(params, mode)] for params, mode in rows])
        limits = v0_max(u_s_max, iso_mass, m_h)
        # then compute_limit's k0_max = m v^2 / 2 is finite, however it
        # rounds v^2
        with np.errstate(over="ignore", invalid="ignore"):
            v2 = limits ** 2
            checked = bool(np.all((v2 < 1e300) & (iso_mass * v2 < 1e300)))
    except InputError:
        checked = False
    if not checked:
        for params, mode in rows:
            compute_limit(table, params.region_id, mode, iso_mass, contact_area)
    return rows, u_s_max, m_h, limits


def run_sweep(model: ManipulatorModel, table: BodyRegionTable,
              config: SweepConfig = SweepConfig()) -> SweepResult:
    """Sweep the box and build speed-limit distributions per region/mode."""
    # in floats, so that neither a span nor n_directions overflows the check;
    # a count too large for a float is inf, which the check rejects
    with np.errstate(over="ignore"):
        counts = np.floor((np.array(config.box_max) - np.array(config.box_min))
                          / config.grid_spacing + 1e-9) + 1
        n_points = float(np.prod(counts))
    if not config.n_directions <= MAX_SWEEP_EVALUATIONS / n_points:
        raise InputError(
            f"sweep of {n_points:.4g} grid points x {config.n_directions} "
            f"directions exceeds the cap of {MAX_SWEEP_EVALUATIONS:,} "
            f"evaluations")
    xs, ys, zs = (lo + config.grid_spacing * np.arange(int(count))
                  for lo, count in zip(config.box_min, counts))
    directions = direction_set(config.n_directions, config.direction_style)
    seed = _default_seed(model)

    for params in table:
        if params.clamped_only:
            raise InputError(
                f"{params.label}: infinite effective mass (m_h_kg = inf) "
                f"cannot be swept, because a sweep also evaluates the "
                f"free-impact modes (transient, quasi-static free)")
    iso_mass = iso_effective_mass(model, config.payload)
    if not iso_mass > 0:
        raise InputError(
            f"constant effective mass (half the moving link mass + payload) "
            f"is {iso_mass!r} kg with payload {config.payload!r} kg; it must "
            f"be > 0: mark a link as moving or set a payload")
    rows, u_s_max, m_h, constant = _constant_limits(table, iso_mass,
                                                    config.contact_area)

    # one scanline per (z, y): deterministic order, warm start along x
    scanlines = [_sweep_scanline(model, np.column_stack(
        [xs, np.full_like(xs, y), np.full_like(xs, z)]), seed)
        for z in zs for y in ys]

    rejected, budget_spent, iterations = map(
        sum, zip(*(counts for counts, _ in scanlines)))
    solved = [q for _, line in scanlines for q in line]
    if not solved:
        raise NumericalError("no reachable grid points in the configured box")
    # the converged points in scanline order, one call per kernel and block
    qs = np.array(solved)
    blocks = [qs[start:start + MASS_BLOCK_POINTS]
              for start in range(0, len(qs), MASS_BLOCK_POINTS)]
    singular = sum(int(np.count_nonzero(
        manipulability(model, block) < SINGULAR_FLAG_THRESHOLD))
        for block in blocks)
    reflected = np.concatenate([
        reflected_mass(model, ReflectedMassQuery(q=block, u=directions))
        for block in blocks])
    flat_masses = reflected.reshape(-1)

    # every reflected-mass limit in one call, a row per (region, mode) row
    try:  # only a reflected-mass limit can overflow here
        limits = v0_max(u_s_max, flat_masses, m_h)
    except InputError:  # name the first row that overflows
        for (params, mode), u, h in zip(rows, u_s_max, m_h):
            try:
                v0_max(u, flat_masses, h)
            except InputError as exc:
                raise InputError(f"{params.label} {mode.value}: {exc}") from None
    samples = {}
    for (params, mode), row, value in zip(rows, limits, constant):
        samples[params.region_id, mode, MassSource.REFLECTED] = row
        samples[params.region_id, mode, MassSource.CONSTANT] = value

    return SweepResult(
        config=config,
        iso_mass=iso_mass,
        samples=samples,
        reflected_masses=reflected,
        n_grid=len(xs) * len(ys) * len(zs),
        n_reachable=len(reflected),
        n_rejected=rejected,
        n_budget_spent=budget_spent,
        ik_iterations=iterations,
        n_singular=singular,
        n_constrained_directions=int(np.count_nonzero(np.isinf(reflected))),
    )


# ---------------------------------------------------------------- reports

@dataclass(frozen=True)
class ScalingRow:
    region_id: str
    baseline_mean: float                                 # m/s
    scaling_pct: Mapping[tuple[ContactMode, MassSource], float]
    worst_case_pct: Mapping[tuple[ContactMode, MassSource], float]


def scaling_report(result: SweepResult) -> tuple[ScalingRow, ...]:
    """Percentage speed scalings of each conservative variant vs baseline.

    One row per region: 100 * mean(variant) / mean(baseline), where the
    baseline is ``BASELINE_COMBO`` and the variants are the other five pairs
    of ``ALL_COMBOS``.  The worst-case columns substitute the face region's
    limit (the most restrictive body region) for every region before
    dividing, answering "what fraction of the nominal speed survives if any
    body part might be hit".
    """
    rows = []
    means = {key: result.stats[key[:2]].mean if key[2] is MassSource.REFLECTED
             else float(v[0]) for key, v in result.samples.items()}
    for rid in REGION_IDS:
        base_mean = means[(rid, *BASELINE_COMBO)]
        scaling: dict[tuple[ContactMode, MassSource], float] = {}
        worst: dict[tuple[ContactMode, MassSource], float] = {}
        for mode, source in ALL_COMBOS:
            if (mode, source) == BASELINE_COMBO:
                continue
            pct = 100.0 * means[(rid, mode, source)] / base_mean
            if not 0.0 < pct <= 100.0 + 1e-9:
                cause = "" if source is MassSource.REFLECTED else (
                    f": the constant effective mass {result.iso_mass:.6g} kg "
                    f"(half the moving link mass + payload "
                    f"{result.config.payload:g} kg) is too light against "
                    f"the arm's reflected masses, the smallest "
                    f"{float(np.min(result.reflected_masses)):.6g} kg")
                raise InputError(
                    f"{REGION_LABELS[rid]} {mode.value}/{source.value}: "
                    f"scaling {pct:.2f}% outside (0, 100]; variant is not "
                    f"conservative w.r.t. the baseline{cause}")
            scaling[(mode, source)] = pct
            worst[(mode, source)] = (100.0 * means[("face", mode, source)]
                                     / base_mean)
        rows.append(ScalingRow(region_id=rid, baseline_mean=base_mean,
                               scaling_pct=scaling, worst_case_pct=worst))
    return tuple(rows)


# ---------------------------------------------------------------- writers

def _distinct_masses(result: SweepResult) -> dict:
    """Each reflected-mass row of ``result`` at the first sample of each
    distinct mass, as (its bits, its floats, the class of every sample or
    None if every mass is distinct); {} where a row breaks the partition of
    ``reflected_masses`` into bit-equal masses.

    A sweep's reflected-mass row is ``v0_max`` of those masses, so it holds
    bit-equal samples wherever they are bit-equal; this is checked on every
    row in one stacked comparison.  Rows shorter than
    ``CSV_PARTITION_MIN_SAMPLES`` give {} unchecked."""
    masses = result.reflected_masses.reshape(-1)
    if len(masses) < CSV_PARTITION_MIN_SAMPLES:
        return {}
    keys = [key for key in result.samples if key[2] is MassSource.REFLECTED]
    rows = [result.samples[key] for key in keys]
    if any(row.shape != masses.shape for row in rows):
        return {}
    bits = np.array(rows, dtype=np.float64).view(np.int64)
    _, first, where = np.unique(masses.view(np.int64), return_index=True,
                                return_inverse=True)
    if len(first) < len(masses):
        distinct = bits[:, first]
        if not np.array_equal(distinct[:, where], bits):
            return {}
        bits, where = distinct, where.tolist()
    else:  # each mass is its own class
        where = None
    return {key: (row.tobytes(), row.view(np.float64), where)
            for key, row in zip(keys, bits)}


def write_sweep_csv(result: SweepResult, path: str | Path) -> None:
    """Long-format sample dump: region,mode,mass_source,sample.

    A reflected-mass row formats one ``repr`` per distinct mass (see
    ``_distinct_masses``), and the rows of a region that hold equal bits
    share their cells; any other row formats every sample.  Each region's
    rows are written in one call."""
    distinct = _distinct_masses(result)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("region,mode,mass_source,sample\n")
        for rid in REGION_IDS:
            shared: dict[bytes, list[str]] = {}
            parts = []
            for (mode, source), (m, s) in _COMBO_WORDS.items():
                key = rid, mode, source
                entry = distinct.get(key)
                if entry is None:
                    cells = list(map(repr, result.samples[key].tolist()))
                elif entry[0] in shared:
                    cells = shared[entry[0]]
                else:
                    row_bits, values, where = entry
                    text = list(map(repr, values.tolist()))
                    cells = shared[row_bits] = (
                        text if where is None
                        else list(map(text.__getitem__, where)))
                if cells:  # else the join would write one bare prefix
                    prefix = f"{rid},{m},{s},"
                    parts.append(prefix + ("\n" + prefix).join(cells) + "\n")
            fh.write("".join(parts))


def write_scaling_csv(rows: tuple[ScalingRow, ...], path: str | Path) -> None:
    combos = sorted({combo for row in rows for combo in row.scaling_pct},
                    key=_COMBO_WORDS.__getitem__)
    words = [_COMBO_WORDS[combo] for combo in combos]
    header = ["region", "baseline_mean_mps"]
    header += [f"pct_{m}_{s}" for m, s in words]
    header += [f"worst_pct_{m}_{s}" for m, s in words]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [row.region_id, repr(row.baseline_mean)]
            cells += [f"{row.scaling_pct[c]:.6f}" for c in combos]
            cells += [f"{row.worst_case_pct[c]:.6f}" for c in combos]
            fh.write(",".join(cells) + "\n")


def boxstats_payload(result: SweepResult) -> dict:
    """JSON-ready box statistics per region and mode/mass-source combo."""
    payload: dict = {
        "counts": {
            "grid_points": result.n_grid,
            "reachable": result.n_reachable,
            "unreachable": result.n_grid - result.n_reachable,
            "near_singular": result.n_singular,
            "constrained_directions": result.n_constrained_directions,
        },
        "constant_effective_mass_kg": result.iso_mass,
        "regions": {},
    }
    for rid in REGION_IDS:
        entry: dict = {}
        for (mode, source), (m, s) in _COMBO_WORDS.items():
            key = (rid, mode, source)
            name = f"{m}|{s}"
            if source is MassSource.CONSTANT:
                entry[name] = {"value": float(result.samples[key][0])}
            else:
                st = result.stats[rid, mode]
                entry[name] = {
                    "mean": st.mean, "q1": st.q1, "median": st.median,
                    "q3": st.q3, "whisker_lo": st.whisker_lo,
                    "whisker_hi": st.whisker_hi, "min": st.minimum,
                    "max": st.maximum, "n": st.n,
                }
        payload["regions"][rid] = entry
    return payload


def write_boxstats_json(result: SweepResult, path: str | Path) -> None:
    write_json(boxstats_payload(result), path)


def render_sweep_svg(result: SweepResult) -> str:
    """Grouped box plot of speed-limit distributions (stars = constant mass)."""
    from .svgplot import grouped_boxplot

    mode_labels = {
        ContactMode.TRANSIENT: "transient",
        ContactMode.QUASI_STATIC_FREE: "quasi-static (free)",
        ContactMode.QUASI_STATIC_CLAMPED: "quasi-static (clamped)",
    }
    groups = [REGION_LABELS[rid] for rid in REGION_IDS]
    boxes: dict[str, list] = {}
    stars: dict[str, list] = {}
    for mode, label in mode_labels.items():
        boxes[label] = [result.stats[rid, mode] for rid in REGION_IDS]
        stars[label] = [float(result.samples[rid, mode, MassSource.CONSTANT][0])
                        for rid in REGION_IDS]
    return grouped_boxplot(
        groups, boxes, stars,
        title="Admissible speed per body region "
              "(boxes: directional reflected mass, stars: constant mass)",
        ylabel="admissible speed [m/s]")
