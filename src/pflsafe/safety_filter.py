"""Runtime enforcement: velocity clamping and a virtual energy tank.

Two mechanisms, deliberately kept separate because they guarantee different
things:

  * ``filter_velocity`` clamps a commanded speed to the admissible
    pre-collision limit.  This is the actual safety constraint.
  * the energy tank bounds the energy a controller may inject into the
    plant.  Injection (positive actuator power) drains the tank and is
    denied once the tank is empty; dissipation is always allowed and may
    optionally be recycled back into the tank, capped at the initial
    budget.  A tank keeps the closed loop passive, but passivity alone
    does not imply a speed limit: with a large budget and no velocity
    filter the plant happily exceeds any admissible speed while every tank
    invariant holds.  ``simulate_loop`` can demonstrate exactly that.

The demo loop is a 1-DoF plant (mass, velocity) driven by a proportional
velocity controller through the tank.  The tank grants energy per control
period; the granted energy is converted into an exactly work-equivalent
force, so the plant's kinetic energy can never exceed the injected total
by more than rounding (the plant and the ledger sum the same grants
apart): with a budget equal to an elastic energy limit U_s,max the loop
cannot enable a collision that overloads the contact even with the
velocity filter disabled.
"""
from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .limits import SpeedLimit
from .schema import number, write_csv

#: most control periods one loop may run (the default scenario runs 2,000)
MAX_FILTER_STEPS = 1_000_000


@dataclass(frozen=True)
class TankState:
    """Virtual energy tank ledger.

    ``cumulative_injected`` is the running sum of every granted energy.
    With recycling disabled the sum is capped at the initial budget, which
    makes the bound ``cumulative_injected <= initial_budget`` exact in
    floating point, not just up to accumulation drift.
    """

    energy: float
    initial_budget: float
    cumulative_injected: float = 0.0
    cumulative_recycled: float = 0.0
    recycling_enabled: bool = False

    def __post_init__(self) -> None:
        number("TankState", "initial_budget", self.initial_budget, ge=0)
        number("TankState", "energy", self.energy, ge=0)


def tank_init(budget: float, recycling_enabled: bool = False) -> TankState:
    return TankState(energy=budget, initial_budget=budget,
                     recycling_enabled=recycling_enabled)


def tank_step(state: TankState, requested_power: float, dt: float,
              power_cap: float | None = None) -> tuple[float, TankState]:
    """One tank update; returns (granted_power, new_state).

    Positive requests (injection) are granted up to the power cap and the
    remaining tank energy; the grant drains the tank.  Non-positive
    requests (dissipation) pass through unchanged; with recycling enabled
    the dissipated energy refills the tank up to the initial budget.
    """
    number("tank_step", "dt", dt, gt=0)
    number("tank_step", "requested_power", requested_power)
    if power_cap is not None:
        number("tank_step", "power_cap", power_cap, gt=0)
    granted, energy, injected, recycled = _tank_grant(
        state.energy, state.initial_budget, state.cumulative_injected,
        state.cumulative_recycled, state.recycling_enabled, requested_power,
        dt, power_cap)
    after = replace(state, energy=energy, cumulative_injected=injected,
                    cumulative_recycled=recycled)
    # untouched bit for bit (repr, unlike ==, tells -0.0 from 0.0): same state
    return granted, state if repr(after) == repr(state) else after


def _tank_grant(energy: float, budget: float, injected: float,
                recycled: float, recycling: bool, requested_power: float,
                dt: float, power_cap: float | None):
    """``tank_step`` on checked floats: (granted, energy, injected, recycled)."""
    if requested_power <= 0.0:
        if recycling and requested_power < 0.0:
            refill = min(-requested_power * dt, budget - energy)
            return requested_power, energy + refill, injected, recycled + refill
        return requested_power, energy, injected, recycled

    e_request = requested_power * dt
    if power_cap is not None:
        e_request = min(e_request, power_cap * dt)
    e_grant = min(e_request, energy)
    energy_new = energy - e_grant
    if energy_new < 0.0:  # floating-point guard; e_grant <= energy already
        energy_new = 0.0
    # a running sum keeps every grant, however small against the budget
    injected += e_grant
    if not recycling:
        injected = min(injected, budget)
    # report the granted power without the round trip through energy when a
    # bound is met exactly, so an unthrottled request passes through bit-equal
    if e_grant == requested_power * dt:
        granted = requested_power
    elif power_cap is not None and e_grant == power_cap * dt:
        granted = power_cap
    else:
        granted = e_grant / dt
    return granted, energy_new, injected, recycled


def filter_velocity(nominal, limit: SpeedLimit):
    """Clamp a commanded speed into [-v0_max, +v0_max].

    This is the minimal intervention for a scalar bound: admissible
    commands pass unchanged, so the filter is idempotent.  An infinite
    command saturates at -v0_max or +v0_max; a NaN one is an error.
    ``nominal`` is a float or an array, clamped entry by entry; a float
    gives a float.  Each entry is ``max(-v0_max, min(v0_max, x))`` bit for
    bit, signed zeros included (``np.clip`` gives +0.0 where that gives
    -0.0 at ``v0_max == 0``).
    """
    x = number("filter_velocity", "nominal", nominal, allow_inf=True)
    v_max = limit.v0_max
    clamped = np.where(x < v_max, x, v_max)
    clamped = np.where(clamped > -v_max, clamped, -v_max)
    return float(clamped) if clamped.ndim == 0 else clamped


@dataclass(eq=False)
class LoopLog:
    """Per-step loop telemetry (arrays share one time base)."""

    t: np.ndarray
    v_nominal: np.ndarray
    v_commanded: np.ndarray
    velocity: np.ndarray
    ke: np.ndarray
    tank_energy: np.ndarray
    injected_cum: np.ndarray

    def write_csv(self, path) -> None:
        write_csv(path, ("t", "v_nominal", "v_commanded", "ke", "tank_energy",
                         "injected_cum"),
                  (self.t, self.v_nominal, self.v_commanded, self.ke,
                   self.tank_energy, self.injected_cum))


#: steps the loop runs between two checks for a stalled state
STALL_CHECK_STEPS = 32

#: the loop state whose bits decide that a step changes nothing
_STATE = struct.Struct("3d")


def simulate_loop(limit: SpeedLimit, mass: float, nominal_profile,
                  budget: float, duration: float, period: float, *,
                  recycling: bool = False, power_cap: float | None = None,
                  velocity_filter: bool = True,
                  gain: float | None = None) -> LoopLog:
    """Run the filtered velocity loop for ``duration`` seconds.

    The plant of ``mass`` starts from rest and the tank full, holding
    ``budget``.  ``nominal_profile`` maps time to the desired speed; it is
    called for every step before the first one runs.  Each ``period``:
    clamp the nominal speed to ``limit`` (if the velocity filter is on),
    compute the proportional control force, ask the tank for the work that
    force would do over the step, then apply the force scaled so its work
    equals the granted energy exactly.  Dissipative steps bypass the tank
    grant and may refill it (with ``recycling``).  Once a step leaves the
    plant speed, the tank energy and the injected total bit for bit as they
    were, and every remaining command has the same bits, each remaining
    step would too: every ``STALL_CHECK_STEPS`` steps the loop looks for
    such a step, and repeats its state for the rest.
    """
    dt = number("simulate_loop", "period", period, gt=0)
    if power_cap is not None:
        power_cap = number("simulate_loop", "power_cap", power_cap, gt=0)
    m = number("simulate_loop", "mass", mass, gt=0)
    budget = number("simulate_loop", "budget", budget, ge=0)
    number("simulate_loop", "duration", duration, gt=0)
    # the default gain gives a closed-loop time constant of 1/20 s
    gain = (20.0 * m if gain is None
            else number("simulate_loop", "gain", gain, gt=0))

    steps = duration / dt
    if not steps < MAX_FILTER_STEPS:
        raise InputError(f"duration / period = {steps:.4g} steps: over the cap "
                         f"of {MAX_FILTER_STEPS:,}")
    n = int(round(steps)) + 1
    t = np.arange(n) * dt
    times = t.tolist()
    # the profile is read for every step up front, and clamped in one call
    # up to its first NaN, which stops the loop at its own step
    v_nom = np.array([float(nominal_profile(ti)) for ti in times])
    nan = np.flatnonzero(np.isnan(v_nom))
    stop = int(nan[0]) if nan.size else n
    v_cmd = (filter_velocity(v_nom[:stop], limit) if velocity_filter
             else v_nom[:stop].copy())
    # the first step from which every command has the same bits
    bits = v_cmd.view(np.int64)
    changes = np.flatnonzero(bits[1:] != bits[:-1])
    tail = int(changes[-1]) + 1 if changes.size else 0

    velocity, tank_energy, injected_cum = [], [], []
    v, energy, injected, recycled = 0.0, budget, 0.0, 0.0
    pending = zip(times, v_cmd.tolist())
    while len(velocity) < stop:
        for ti, command in itertools.islice(pending, STALL_CHECK_STEPS):
            force = gain * (command - v)
            # ungated candidate step and the exact work it would perform
            v_next = v + force / m * dt
            work = 0.5 * m * (v_next * v_next - v * v)
            power = work / dt
            if not math.isfinite(power):
                raise InputError(
                    f"simulate_loop: the commanded speed {command!r} m/s "
                    f"(plant at {v!r} m/s, gain {gain!r} N s/m) over a "
                    f"period of {dt!r} s asks for non-finite power at "
                    f"t = {ti!r} s")
            granted, energy, injected, recycled = _tank_grant(
                energy, budget, injected, recycled, recycling, power, dt,
                power_cap)
            e_grant = granted * dt
            if work > 0.0 and e_grant < work:
                # throttled injection: apply the force scaled so its work
                # over the step equals the granted energy exactly
                v_next = math.copysign(
                    math.sqrt(max(v * v + 2.0 * e_grant / m, 0.0)),
                    v_next if v_next != 0.0 else command - v)
            v = v_next
            velocity.append(v)
            tank_energy.append(energy)
            injected_cum.append(injected)
        # the last step left the state as the one before had: from the
        # constant tail of the commands on, so would every later step
        if len(velocity) > max(tail, 1) and (
                _STATE.pack(v, energy, injected) == _STATE.pack(
                    velocity[-2], tank_energy[-2], injected_cum[-2])):
            rest = stop - len(velocity)
            velocity += [v] * rest
            tank_energy += [energy] * rest
            injected_cum += [injected] * rest
    if stop < n:
        raise InputError(f"simulate_loop: nominal speed at t = {times[stop]!r} "
                         f"s is nan")

    velocity = np.array(velocity)
    return LoopLog(t=t, v_nominal=v_nom, v_commanded=v_cmd, velocity=velocity,
                   ke=0.5 * m * velocity * velocity,
                   tank_energy=np.array(tank_energy),
                   injected_cum=np.array(injected_cum))
