"""Two-mass-spring contact model for robot/human collisions.

A robot of effective mass m_r moving at v0 strikes a body part of effective
mass m_h through a linear contact spring of stiffness k (the tissue spring
from the body-region table).  While the spring is compressed the pair
behaves as an undamped oscillator in the relative coordinate; all stored
energy is returned, so the model is the conservative worst case for the
peak force.  Closed forms for the pre-collision quantities:

  reduced mass        mu      = m_r * m_h / (m_r + m_h)
  common velocity     v_star  = m_r * v0 / (m_r + m_h)   (momentum balance)
  transferred energy  delta_k = 1/2 * mu * v0^2
  peak compression    dx_max  = v0 * sqrt(mu / k)
  peak force          f_peak  = k * dx_max
  time of peak        t_star  = (pi / 2) * sqrt(mu / k)

A clamped body part (m_h = inf) is modelled by pinning the human mass:
v_h == 0, mu == m_r, v_star == 0, and the robot's entire kinetic energy
loads the spring.

``simulate`` integrates the same dynamics with a fixed-step classic
Runge-Kutta scheme and a compression-only spring: when the compression
returns to zero the surfaces separate and both masses coast.  The
simulated peak must agree with the closed forms; tests use one as the
oracle for the other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .errors import InputError
from .schema import number

#: samples per trajectory: ``simulate`` steps 1/1000 of the contact period
#: over 3/4 of it (the peak sits at a quarter period, separation at half)
_SAMPLES = 751


@dataclass(frozen=True)
class CollisionScenario:
    """Pre-collision configuration. Masses kg, stiffness N/m, speed m/s."""

    m_r: float
    m_h: float          # math.inf pins the body part (clamped contact)
    k: float
    v0: float

    def __post_init__(self) -> None:
        number("CollisionScenario", "m_r", self.m_r, gt=0)
        number("CollisionScenario", "m_h", self.m_h, gt=0, allow_inf=True)
        number("CollisionScenario", "k", self.k, gt=0)
        number("CollisionScenario", "v0", self.v0, ge=0)
        # v0 * v0 overflows to inf where v0 ** 2 raises OverflowError
        energy = 0.5 * self.m_r * (self.v0 * self.v0)
        if not (math.isfinite(self.m_r * self.v0) and math.isfinite(energy)):
            raise InputError(
                f"m_r = {self.m_r!r} kg at v0 = {self.v0!r} m/s: the impact "
                f"momentum m_r * v0 and energy 1/2 * m_r * v0^2 must be finite")
        # below the normal range a float keeps too few bits: mu is as precise
        # as m_r m_h, and the period 2 pi sqrt(mu / k) as mu / k
        product = self.m_r * (1.0 if self.clamped else self.m_h)
        ratio = self.reduced_mass / self.k
        if not (min(product, ratio) >= float_info.min and ratio < math.inf):
            raise InputError(
                f"m_r = {self.m_r!r} kg, m_h = {self.m_h!r} kg, k = {self.k!r} "
                f"N/m: m_r m_h = {product!r} kg^2 and mu / k = {ratio!r} s^2 "
                f"must be finite normal floats")
        if self.v0 == 0.0:
            return
        # the same for the peak state; RK4 sums six slopes, and the energies
        # square the compression and the speeds, which reach 2 v0
        dx_max = self.v0 * math.sqrt(ratio)
        force, accel = self.k * dx_max, self.v0 / math.sqrt(ratio)
        if not (min(dx_max, force, accel) >= float_info.min
                and math.isfinite(dx_max * dx_max + force + 6.0 * accel
                                  + 4.0 * self.v0 * self.v0)):
            raise InputError(
                f"v0 = {self.v0!r} m/s, m_r = {self.m_r!r} kg, m_h = "
                f"{self.m_h!r} kg, k = {self.k!r} N/m: the peak compression "
                f"v0 sqrt(mu / k) = {dx_max!r} m, force {force!r} N and "
                f"acceleration {accel!r} m/s^2 must be normal floats, and "
                f"dx^2, 6 times the acceleration and (2 v0)^2 finite")

    @property
    def clamped(self) -> bool:
        return math.isinf(self.m_h)

    @property
    def reduced_mass(self) -> float:
        if self.clamped:
            return self.m_r
        return self.m_r * self.m_h / (self.m_r + self.m_h)


@dataclass(frozen=True)
class CollisionOutcome:
    """State at maximum compression, simulated or in closed form."""

    v_star: float    # common velocity at peak compression (0 when clamped)
    t_star: float    # s
    dx_max: float    # m
    f_peak: float    # N
    delta_k: float   # kinetic energy converted to elastic energy at peak, J
    k0: float        # robot kinetic energy at impact, J
    k_star: float    # kinetic energy remaining at peak, J
    degenerate: bool = False  # v0 == 0: no contact develops, t_star undefined


#: the outcome of an impact at v0 == 0
_AT_REST = CollisionOutcome(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, degenerate=True)


@dataclass(frozen=True, eq=False)
class CollisionTrajectory:
    """Uniformly sampled collision time history."""

    t: np.ndarray
    v_r: np.ndarray
    v_h: np.ndarray   # all zeros for a clamped contact
    dx: np.ndarray    # spring compression, >= 0
    dt: float


def natural_period(scenario: CollisionScenario) -> float:
    """Period of the relative-coordinate oscillator, 2*pi*sqrt(mu/k)."""
    return 2.0 * math.pi * math.sqrt(scenario.reduced_mass / scenario.k)


def peak_contact_state(scenario: CollisionScenario) -> CollisionOutcome:
    """Closed-form state at maximum compression: v_star from the momentum
    balance, delta_k from the energy balance (module docstring)."""
    if scenario.v0 == 0.0:
        return _AT_REST
    mu = scenario.reduced_mass
    root = math.sqrt(mu / scenario.k)
    dx_max = scenario.v0 * root
    delta_k = 0.5 * mu * scenario.v0 ** 2
    k0 = 0.5 * scenario.m_r * scenario.v0 ** 2
    return CollisionOutcome(
        v_star=scenario.m_r * scenario.v0 / (scenario.m_r + scenario.m_h),
        t_star=(math.pi / 2.0) * root,
        dx_max=dx_max,
        f_peak=scenario.k * dx_max,
        delta_k=delta_k,
        k0=k0,
        k_star=k0 - delta_k,
    )


def _rk4_step(v_r: float, v_h: float, dx: float, h: float,
              m_r: float, m_h: float, k: float) -> tuple[float, float, float]:
    """One classic Runge-Kutta step of the in-contact dynamics, on floats:
    stage j's slopes are the robot's acceleration ``r``, the body part's
    ``u`` and the compression rate ``d``.  A clamped contact (m_h = inf)
    needs no branch: f / m_h is exactly 0.0."""
    half = 0.5 * h
    f = k * dx
    r1, u1, d1 = -f / m_r, f / m_h, v_r - v_h
    f = k * (dx + half * d1)
    r2, u2, d2 = -f / m_r, f / m_h, (v_r + half * r1) - (v_h + half * u1)
    f = k * (dx + half * d2)
    r3, u3, d3 = -f / m_r, f / m_h, (v_r + half * r2) - (v_h + half * u2)
    f = k * (dx + h * d3)
    r4, u4, d4 = -f / m_r, f / m_h, (v_r + h * r3) - (v_h + h * u3)
    sixth = h / 6.0
    return (v_r + sixth * (r1 + 2.0 * r2 + 2.0 * r3 + r4),
            v_h + sixth * (u1 + 2.0 * u2 + 2.0 * u3 + u4),
            dx + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4))


def _release_time(v_r: float, v_h: float, dx: float, h: float,
                  m_r: float, m_h: float, k: float) -> float:
    """Bisect the sub-step time at which compression returns to zero."""
    lo, hi = 0.0, h
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _rk4_step(v_r, v_h, dx, mid, m_r, m_h, k)[2] > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simulate(scenario: CollisionScenario,
             ) -> tuple[CollisionTrajectory, CollisionOutcome]:
    """Integrate a collision and extract its peak-state outcome.

    The step is 1/1000 of the contact period and the horizon 3/4 of it, so
    a trajectory holds 751 samples; the scenario has checked that floats
    resolve the period and the peak state.  The spring only pushes: once
    the compression returns to zero the surfaces separate and both masses
    coast.
    """
    dt = natural_period(scenario) / 1000.0
    t = np.arange(_SAMPLES) * dt
    if scenario.v0 == 0.0:
        return CollisionTrajectory(t, *np.zeros((3, _SAMPLES)), dt), _AT_REST

    m_r, m_h, k = scenario.m_r, scenario.m_h, scenario.k
    states = [(scenario.v0, 0.0, 0.0)]
    v_r, v_h, dx = states[0]
    while len(states) < _SAMPLES:
        new = _rk4_step(v_r, v_h, dx, dt, m_r, m_h, k)
        if new[2] < 0.0 and dx > 0.0:
            # surfaces separate inside this step: advance to the exact
            # crossing, then coast (free flight is integrated exactly)
            tau = _release_time(v_r, v_h, dx, dt, m_r, m_h, k)
            new = _rk4_step(v_r, v_h, dx, tau, m_r, m_h, k)[:2] + (0.0,)
            states += [new] * (_SAMPLES - len(states))
            break
        states.append(new)
        v_r, v_h, dx = new

    v_r, v_h, dx = np.array(states).T.copy()
    traj = CollisionTrajectory(t=t, v_r=v_r, v_h=v_h, dx=dx, dt=dt)
    return traj, _extract_outcome(scenario, traj)


def _extract_outcome(scenario: CollisionScenario,
                     traj: CollisionTrajectory) -> CollisionOutcome:
    """Peak quantities from the sampled trajectory (parabolic refinement)."""
    i = int(np.argmax(traj.dx))
    if i == 0 or i == len(traj.dx) - 1:
        raise InputError(
            f"peak compression at sample {i} of {len(traj.dx)}: not "
            f"bracketed by the trajectory")
    ym, y0, yp = traj.dx[i - 1], traj.dx[i], traj.dx[i + 1]
    denom = ym - 2.0 * y0 + yp
    if denom == 0.0:
        delta, dx_max = 0.0, y0
    else:
        delta = 0.5 * (ym - yp) / denom * traj.dt
        dx_max = y0 - 0.125 * (ym - yp) ** 2 / denom
    t_star = traj.t[i] + delta

    # velocities at the refined peak via linear interpolation
    j = min(int(t_star / traj.dt), len(traj.t) - 2)
    alpha = (t_star - traj.t[j]) / traj.dt
    vr_star = (1.0 - alpha) * traj.v_r[j] + alpha * traj.v_r[j + 1]
    if scenario.clamped:
        v_star = 0.0
    else:
        vh_star = (1.0 - alpha) * traj.v_h[j] + alpha * traj.v_h[j + 1]
        v_star = ((scenario.m_r * vr_star + scenario.m_h * vh_star)
                  / (scenario.m_r + scenario.m_h))

    f_peak = scenario.k * dx_max
    delta_k = 0.5 * scenario.k * dx_max ** 2
    k0 = 0.5 * scenario.m_r * scenario.v0 ** 2
    return CollisionOutcome(
        v_star=v_star,
        t_star=float(t_star),
        dx_max=float(dx_max),
        f_peak=float(f_peak),
        delta_k=float(delta_k),
        k0=k0,
        k_star=k0 - delta_k,
    )


def total_energy(scenario: CollisionScenario,
                 traj: CollisionTrajectory) -> np.ndarray:
    """Mechanical energy at every sample (the human term is 0 when clamped)."""
    e = 0.5 * scenario.m_r * traj.v_r ** 2 + 0.5 * scenario.k * traj.dx ** 2
    if not scenario.clamped:
        e = e + 0.5 * scenario.m_h * traj.v_h ** 2
    return e
