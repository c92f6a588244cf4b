"""Body-region biomechanical limit data.

Per-region onset-of-pain thresholds in the style of ISO/TS 15066 Annex A:
a maximum permissible contact force, a maximum permissible pressure, an
effective spring constant for the contacted tissue, and an effective mass
of the contacted body part.  All thresholds are quasi-static values; the
transient (dynamic, short-duration) thresholds are obtained by a per-region
multiplier, which is 1 for the two head regions and 2 everywhere else.

Units are normalised at load time:

  f_max_qs   N
  p_max_qs   N/cm^2
  stiffness  N/m        (ingested as N/mm, the unit used by the standard)
  m_h        kg         (``inf`` marks a body part that cannot recoil)

The force and pressure criteria are reconciled by ``effective_force_limit``:
for a contact area A (cm^2) the admissible force is min(f_max, A * p_max),
so the pressure criterion governs small-area contacts and the blanket force
limit governs large ones.  The tabulated force values assume A = 1 cm^2.
"""
from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InputError
from .schema import Source, number, read_text

# Table rows in report order.  Keys are normalised region ids; values the
# human-readable labels used in CSV files and error messages.
REGION_LABELS: Mapping[str, str] = {
    "skull_forehead": "Skull/Forehead",
    "face": "Face",
    "neck": "Neck",
    "back_shoulders": "Back/Shoulders",
    "chest": "Chest",
    "abdomen": "Abdomen",
    "pelvis": "Pelvis",
    "upper_arms_elbows": "Upper arms/elbows",
    "lower_arms_wrists": "Lower arms/wrists",
    "hands_fingers": "Hands/fingers",
    "thighs_knees": "Thighs/knees",
    "lower_legs": "Lower legs",
}
REGION_IDS: tuple[str, ...] = tuple(REGION_LABELS)

# Regions whose transient thresholds carry no elevation over quasi-static.
HEAD_REGIONS = frozenset({"skull_forehead", "face"})

_CSV_HEADER = ["region", "f_max_qs_N", "p_max_qs_N_per_cm2",
               "k_N_per_mm", "m_h_kg", "transient_mult"]


class ContactMode(enum.Enum):
    """Contact situation a speed limit is derived for.

    TRANSIENT             free impact, short-duration (dynamic) thresholds
    QUASI_STATIC_FREE     free impact held to quasi-static thresholds
    QUASI_STATIC_CLAMPED  body part pinned against a rigid surface
    """

    TRANSIENT = "transient"
    QUASI_STATIC_FREE = "quasi_static_free"
    QUASI_STATIC_CLAMPED = "quasi_static_clamped"


def normalize_region(name: str) -> str:
    """Map a region label or id to its canonical id (lossy, lowercase)."""
    out = name.strip().lower()
    for ch in "/ -&":
        out = out.replace(ch, "_")
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_")


@dataclass(frozen=True)
class BodyRegionParams:
    """Thresholds and contact model parameters for one body region."""

    region_id: str
    f_max_qs: float        # N
    p_max_qs: float        # N/cm^2
    stiffness: float       # N/m
    m_h: float             # kg; math.inf for parts that cannot recoil
    transient_multiplier: float

    def __post_init__(self) -> None:
        if self.region_id not in REGION_LABELS:
            raise InputError(
                f"unknown region id {self.region_id!r}; expected one of "
                + ", ".join(REGION_IDS))
        for field in ("f_max_qs", "p_max_qs", "stiffness"):
            number(self.label, field, getattr(self, field), gt=0)
        number(self.label, "m_h", self.m_h, gt=0, allow_inf=True)
        number(self.label, "transient_mult", self.transient_multiplier, ge=1)

    @property
    def label(self) -> str:
        return REGION_LABELS[self.region_id]

    @property
    def clamped_only(self) -> bool:
        """True when the body part cannot recoil (infinite effective mass)."""
        return math.isinf(self.m_h)


@dataclass(frozen=True)
class BodyRegionTable:
    """Immutable mapping of all twelve canonical body regions."""

    entries: Mapping[str, BodyRegionParams]

    def __post_init__(self) -> None:
        missing = [rid for rid in REGION_IDS if rid not in self.entries]
        if missing:
            raise InputError(
                "missing region: " + ", ".join(REGION_LABELS[m] for m in missing))
        extra = [rid for rid in self.entries if rid not in REGION_LABELS]
        if extra:
            raise InputError("unknown region: " + ", ".join(extra))
        # The two head regions take no transient elevation; every other
        # region of the reference table doubles its quasi-static threshold.
        for rid, params in self.entries.items():
            expected = 1.0 if rid in HEAD_REGIONS else 2.0
            if params.transient_multiplier != expected:
                raise InputError(
                    f"{params.label}: transient_mult must be {expected:g} "
                    f"for this region, got {params.transient_multiplier:g}")

    def __getitem__(self, region: str) -> BodyRegionParams:
        rid = normalize_region(region)
        if rid not in self.entries:
            raise InputError(f"unknown region {region!r}; valid regions: "
                             + ", ".join(REGION_IDS))
        return self.entries[rid]

    def __iter__(self) -> Iterable[BodyRegionParams]:
        return (self.entries[rid] for rid in REGION_IDS)


def _parse_float(raw: str, row: int, column: str, region: str,
                 allow_inf: bool = False) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise InputError(
            f"row {row} ({region}): column {column!r} is not a number: {raw!r}"
        ) from None
    return number(f"row {row} ({region})", f"column {column!r}", value,
                  allow_inf=allow_inf)


def load_body_table(source: Source) -> BodyRegionTable:
    """Parse and validate a body-region limit table.

    The format is CSV with the exact header
    ``region,f_max_qs_N,p_max_qs_N_per_cm2,k_N_per_mm,m_h_kg,transient_mult``.
    Lines starting with ``#`` are comments.  Stiffness is converted from
    N/mm to N/m here; ``m_h_kg`` accepts ``inf``.
    """
    text = read_text(source)
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, next(csv.reader(io.StringIO(line)))))

    if not rows:
        raise InputError("empty table: no header row found")
    header_line, header = rows[0]
    if [h.strip() for h in header] != _CSV_HEADER:
        raise InputError(
            f"line {header_line}: bad header {header!r}; expected "
            + ",".join(_CSV_HEADER))

    entries: dict[str, BodyRegionParams] = {}
    for lineno, cells in rows[1:]:
        if len(cells) != len(_CSV_HEADER):
            raise InputError(
                f"row {lineno}: expected {len(_CSV_HEADER)} columns, "
                f"got {len(cells)}")
        raw_region = cells[0]
        rid = normalize_region(raw_region)
        if rid not in REGION_LABELS:
            raise InputError(
                f"row {lineno}: unknown region {raw_region!r}; valid regions: "
                + ", ".join(REGION_LABELS.values()))
        if rid in entries:
            raise InputError(
                f"row {lineno}: duplicate region: {REGION_LABELS[rid]}")
        f_max = _parse_float(cells[1], lineno, "f_max_qs_N", raw_region)
        p_max = _parse_float(cells[2], lineno, "p_max_qs_N_per_cm2", raw_region)
        k_n_mm = _parse_float(cells[3], lineno, "k_N_per_mm", raw_region)
        m_h = _parse_float(cells[4], lineno, "m_h_kg", raw_region, allow_inf=True)
        mult = _parse_float(cells[5], lineno, "transient_mult", raw_region)
        try:
            entries[rid] = BodyRegionParams(
                region_id=rid,
                f_max_qs=f_max,
                p_max_qs=p_max,
                stiffness=k_n_mm * 1000.0,  # N/mm -> N/m
                m_h=m_h,
                transient_multiplier=mult,
            )
        except InputError as exc:
            raise InputError(f"row {lineno}: {exc}") from None

    return BodyRegionTable(entries=entries)


def binding_criterion(params: BodyRegionParams, contact_area: float = 1.0) -> str:
    """Which threshold governs at the given contact area: force or pressure.

    Ties resolve to "force": at the nominal 1 cm^2 area the tabulated force
    limit is the operative number.
    """
    number(params.label, "contact_area", contact_area, gt=0)
    return "pressure" if contact_area * params.p_max_qs < params.f_max_qs else "force"


def effective_force_limit(params: BodyRegionParams, mode: ContactMode,
                          contact_area: float = 1.0) -> float:
    """Admissible contact force [N] for a region, mode and contact area [cm^2].

    Both criteria are enforced: the result is min(f_max, A * p_max), scaled
    by the region's transient multiplier when mode is TRANSIENT.  Clamped
    contacts always use quasi-static thresholds (a pinned body part keeps
    loading after the impact, so the short-duration elevation never applies).
    """
    number(params.label, "contact_area", contact_area, gt=0)
    limit = min(params.f_max_qs, contact_area * params.p_max_qs)
    if mode is ContactMode.TRANSIENT:
        limit *= params.transient_multiplier
    return limit


def max_elastic_energy(params: BodyRegionParams, mode: ContactMode,
                       contact_area: float = 1.0) -> float:
    """Maximum elastic energy [J] the contact spring may store: F^2 / (2k).

    A budget that underflows to 0 or overflows to inf is rejected.
    """
    f_eff = effective_force_limit(params, mode, contact_area)
    budget = f_eff * f_eff / (2.0 * params.stiffness)
    if not budget > 0:
        raise InputError(
            f"{params.label} {mode.value}: contact_area = {contact_area!r} "
            f"cm^2 leaves an elastic energy budget F^2 / 2k of {budget!r} J; "
            f"it must be > 0")
    if math.isinf(budget):
        column, value = (
            ("p_max_qs_N_per_cm2", params.p_max_qs)
            if binding_criterion(params, contact_area) == "pressure"
            else ("f_max_qs_N", params.f_max_qs))
        raise InputError(
            f"{params.label} {mode.value}: {column} = {value!r} at "
            f"contact_area = {contact_area!r} cm^2 gives an elastic energy "
            f"budget F^2 / 2k of {budget!r} J; it must be finite")
    return budget
