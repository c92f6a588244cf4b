"""Admissible pre-collision speed and energy limits.

The contact spring may store at most u_s_max = F_eff^2 / (2k) before the
region's force threshold is exceeded.  An impact loads it with the energy
1/2*mu*v0^2 of the relative motion, 1/mu = 1/m_r + 1/m_h, so every limit
is the one energy balance

    v0_max = sqrt(2 * u_s_max * (1/m_r + 1/m_h))

  free impact     both masses finite: the body part recoils.
  clamped impact  m_h = inf: the body part cannot recoil, the robot's
                  entire kinetic energy loads the spring and the energy
                  budget on it is k0_max = u_s_max.

A constrained direction has m_r = inf, which gives a clamped limit of 0.
Free limits with the transient thresholds model the short-duration case;
clamped limits are always evaluated against quasi-static thresholds.

Note on single-mass bounds: the values sqrt(2*u/m) for m = max(m_r, m_h)
and m = min(m_r, m_h) both sit *below* the free-impact limit (the reduced
mass is smaller than either mass), so the smaller-mass value alone is not
an upper bound.  ``velocity_bounds`` therefore returns
[sqrt(2u/max), sqrt(2) * sqrt(2u/min)], which brackets the free limit
strictly for unequal masses and touches it exactly when m_r == m_h.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import (BodyRegionParams, BodyRegionTable, ContactMode,
                   binding_criterion, max_elastic_energy)
from .errors import InputError
from .schema import number


@dataclass(frozen=True)
class SpeedLimit:
    """Admissible pre-collision state for one region/mode/mass."""

    v0_max: float            # m/s
    k0_max: float            # J, robot kinetic energy at v0_max
    u_s_max: float           # J, elastic energy budget of the contact
    binding_criterion: str   # "force" or "pressure"


def v0_max(u_s_max: float, m_r, m_h: float):
    """Speed limit sqrt(2 * u_s_max * (1/m_r + 1/m_h)).

    ``m_r`` is a float or an array of robot masses, and an infinite entry
    (a constrained direction) is allowed.  ``m_h = inf`` is the clamped
    contact.  A float ``m_r`` gives a float, an array gives an array.
    A limit that overflows is an error, never ``inf``.
    """
    number("v0_max", "u_s_max", u_s_max, gt=0)
    masses = np.asarray(m_r, dtype=float)
    if not np.all(masses > 0):
        raise InputError(f"v0_max: m_r must be > 0, got {m_r!r}")
    number("v0_max", "m_h", m_h, gt=0, allow_inf=True)
    with np.errstate(over="ignore"):
        v = np.sqrt(2.0 * u_s_max * (1.0 / masses + 1.0 / m_h))
    if not np.all(np.isfinite(v)):
        raise InputError(f"v0_max: u_s_max = {u_s_max!r} J, m_r = "
                         f"{float(masses.min())!r} kg and m_h = {m_h!r} kg "
                         f"give an infinite speed limit; it must be finite")
    return float(v) if v.ndim == 0 else v


def body_part_mass(params: BodyRegionParams, mode: ContactMode) -> float:
    """The body part's effective mass m_h in a contact mode: inf if clamped."""
    return math.inf if mode is ContactMode.QUASI_STATIC_CLAMPED else params.m_h


def velocity_bounds(u_s_max: float, m_r: float,
                    m_h: float) -> tuple[float, float]:
    """Bracket of the free-impact limit from single-mass energy budgets.

    Returns (sqrt(2u/max(m_r, m_h)), sqrt(2) * sqrt(2u/min(m_r, m_h))).
    The free limit lies strictly inside for m_r != m_h and equals the upper
    value for equal masses.
    """
    number("velocity_bounds", "u_s_max", u_s_max, gt=0)
    number("velocity_bounds", "m_r", m_r, gt=0)
    number("velocity_bounds", "m_h", m_h, gt=0, allow_inf=True)
    lower = math.sqrt(2.0 * u_s_max / max(m_r, m_h))
    upper = math.sqrt(2.0) * math.sqrt(2.0 * u_s_max / min(m_r, m_h))
    if not np.isfinite(upper):  # float division overflows to inf silently
        raise InputError(f"velocity_bounds: u_s_max = {u_s_max!r} J and min("
                         f"m_r, m_h) = {min(m_r, m_h)!r} kg give an infinite bound")
    return lower, upper


def compute_limit(table: BodyRegionTable, region: str, mode: ContactMode,
                  robot_mass: float, contact_area: float = 1.0) -> SpeedLimit:
    """Speed limit of a region and contact mode for a robot mass [kg]."""
    number("compute_limit", "robot_mass", robot_mass, gt=0)
    params = table[region]
    u_s_max = max_elastic_energy(params, mode, contact_area)
    if params.clamped_only and mode is not ContactMode.QUASI_STATIC_CLAMPED:
        raise InputError(
            f"{params.label}: effective mass is infinite (cannot recoil); "
            f"evaluate this region in "
            f"{ContactMode.QUASI_STATIC_CLAMPED.value} mode")
    where = f"{params.label} {mode.value}, robot_mass = {robot_mass!r} kg"
    try:  # every input is checked: only an overflowing limit is left
        limit = v0_max(u_s_max, robot_mass, body_part_mass(params, mode))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
    k0_max = 0.5 * robot_mass * limit ** 2
    if not math.isfinite(k0_max):
        raise InputError(f"{where}: k0_max = m_r v0_max^2 / 2 overflows at "
                         f"u_s_max = {u_s_max!r} J; it must be finite")
    return SpeedLimit(
        v0_max=limit,
        k0_max=k0_max,
        u_s_max=u_s_max,
        binding_criterion=binding_criterion(params, contact_area),
    )
