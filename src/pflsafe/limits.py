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

Note on single-mass bounds: sqrt(2*u/m) for m = max(m_r, m_h) or
m = min(m_r, m_h) both sit *below* the free-impact limit.
``velocity_bounds`` is ``v0_max`` at the bracket's corners instead,
(u, max, inf) and (u, min, min).  Each corner moves one term of the sum
one way and IEEE rounding is monotone, so lower <= free <= upper holds
exactly in floating point, with upper == free bit for bit if m_r == m_h.
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


def v0_max(u_s_max, m_r, m_h):
    """Speed limit sqrt(2 * u_s_max * (1/m_r + 1/m_h)).

    Each argument is a float or an array, and arrays broadcast; three
    floats give a float.  An infinite ``m_r`` (a constrained direction) is
    allowed, and ``m_h = inf`` is the clamped contact.  A limit that
    overflows is an error, never ``inf``.
    """
    u_s_max = number("v0_max", "u_s_max", u_s_max, gt=0)
    m_r = number("v0_max", "m_r", m_r, gt=0, allow_inf=True)
    m_h = number("v0_max", "m_h", m_h, gt=0, allow_inf=True)
    with np.errstate(over="ignore"):
        v = np.sqrt(2.0 * u_s_max * (1.0 / m_r + 1.0 / m_h))
    finite = np.isfinite(v)
    if not finite.all():
        u, m, h = (float(np.broadcast_to(x, v.shape).flat[np.argmin(finite)])
                   for x in (u_s_max, m_r, m_h))
        raise InputError(f"v0_max: u_s_max = {u!r} J, m_r = {m!r} kg and "
                         f"m_h = {h!r} kg give an infinite speed limit; it "
                         f"must be finite")
    return float(v) if v.ndim == 0 else v


def body_part_mass(params: BodyRegionParams, mode: ContactMode) -> float:
    """The body part's effective mass m_h in a contact mode: inf if clamped."""
    return math.inf if mode is ContactMode.QUASI_STATIC_CLAMPED else params.m_h


def velocity_bounds(u_s_max, m_r, m_h):
    """(lower, upper) bracket of the free-impact limit: ``v0_max`` at
    (u_s_max, max(m_r, m_h), inf) and (u_s_max, min, min), same shapes."""
    u_s_max = number("velocity_bounds", "u_s_max", u_s_max, gt=0)
    m_r = number("velocity_bounds", "m_r", m_r, gt=0)
    m_h = number("velocity_bounds", "m_h", m_h, gt=0, allow_inf=True)
    light = np.minimum(m_r, m_h)
    try:
        upper = v0_max(u_s_max, light, light)
    except InputError:  # if any entry overflows, the extremes together do
        raise InputError(f"velocity_bounds: u_s_max = {float(np.max(u_s_max))!r}"
                         f" J and min(m_r, m_h) = {float(np.min(light))!r} kg "
                         f"give an infinite bound") from None
    return v0_max(u_s_max, np.maximum(m_r, m_h), math.inf), upper


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
