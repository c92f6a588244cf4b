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
force, so the plant's kinetic energy can never exceed the injected total:
with a budget equal to an elastic energy limit U_s,max the loop cannot
enable a collision that overloads the contact even with the velocity
filter disabled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .limits import SpeedLimit
from .schema import number

#: most control periods one loop may run (the default scenario runs 2,000)
MAX_FILTER_STEPS = 1_000_000


@dataclass(frozen=True)
class FilterConfig:
    """Loop parameters: the speed limit, control period and power ceiling."""

    speed_limit: SpeedLimit
    period: float                 # s
    power_cap: float | None = None  # W, optional actuator power valve

    def __post_init__(self) -> None:
        number("FilterConfig", "period", self.period, gt=0)
        if self.power_cap is not None:
            number("FilterConfig", "power_cap", self.power_cap, gt=0)


@dataclass(frozen=True)
class TankState:
    """Virtual energy tank ledger.

    With recycling disabled the ledger is derived from the energy balance
    (``cumulative_injected = initial_budget - energy``), which makes the
    bound ``cumulative_injected <= initial_budget`` exact in floating
    point, not just up to accumulation drift.
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

    if requested_power <= 0.0:
        if state.recycling_enabled and requested_power < 0.0:
            headroom = state.initial_budget - state.energy
            refill = min(-requested_power * dt, headroom)
            return requested_power, replace(
                state,
                energy=state.energy + refill,
                cumulative_recycled=state.cumulative_recycled + refill)
        return requested_power, state

    e_request = requested_power * dt
    if power_cap is not None:
        e_request = min(e_request, power_cap * dt)
    e_grant = min(e_request, state.energy)
    energy_new = state.energy - e_grant
    if energy_new < 0.0:  # floating-point guard; e_grant <= energy already
        energy_new = 0.0
    if state.recycling_enabled:
        injected = state.cumulative_injected + e_grant
    else:
        injected = state.initial_budget - energy_new
    # report the granted power without the round trip through energy when a
    # bound is met exactly, so an unthrottled request passes through bit-equal
    if e_grant == requested_power * dt:
        granted = requested_power
    elif power_cap is not None and e_grant == power_cap * dt:
        granted = power_cap
    else:
        granted = e_grant / dt
    return granted, replace(state, energy=energy_new,
                            cumulative_injected=injected)


def filter_velocity(nominal: float, cfg: FilterConfig) -> float:
    """Clamp a commanded speed into [-v0_max, +v0_max].

    This is the minimal intervention for a scalar bound: admissible
    commands pass unchanged, so the filter is idempotent.  An infinite
    command saturates at -v0_max or +v0_max; a NaN one is an error.
    """
    if math.isnan(nominal):  # max and min would pass it on as +v0_max
        raise InputError("filter_velocity: nominal must be a number, got nan")
    v_max = cfg.speed_limit.v0_max
    return max(-v_max, min(v_max, nominal))


@dataclass
class PlantState:
    """1-DoF rigid plant."""

    mass: float
    velocity: float = 0.0

    def __post_init__(self) -> None:
        number("PlantState", "mass", self.mass, gt=0)
        number("PlantState", "velocity", self.velocity)


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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,v_nominal,v_commanded,ke,tank_energy,injected_cum\n")
            for i in range(len(self.t)):
                row = (self.t[i], self.v_nominal[i], self.v_commanded[i],
                       self.ke[i], self.tank_energy[i], self.injected_cum[i])
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


def simulate_loop(plant: PlantState, nominal_profile, cfg: FilterConfig,
                  tank: TankState, duration: float, *,
                  velocity_filter: bool = True,
                  gain: float | None = None) -> LoopLog:
    """Run the filtered velocity loop for ``duration`` seconds.

    ``nominal_profile`` maps time to the desired speed.  Each period:
    clamp the nominal speed (if the velocity filter is on), compute the
    proportional control force, ask the tank for the work that force would
    do over the step, then apply the force scaled so its work equals the
    granted energy exactly.  Dissipative steps bypass the tank grant and
    may refill it.  ``plant`` is the initial state and is left unchanged;
    the trajectory is in the returned log.
    """
    number("simulate_loop", "duration", duration, gt=0)
    dt = cfg.period
    # the default gain gives a closed-loop time constant of 1/20 s
    gain = (20.0 * plant.mass if gain is None
            else number("simulate_loop", "gain", gain, gt=0))

    steps = duration / dt
    if not steps < MAX_FILTER_STEPS:
        raise InputError(f"duration / period = {steps:.4g} steps: over the cap "
                         f"of {MAX_FILTER_STEPS:,}")
    n = int(round(steps)) + 1
    log = LoopLog(
        t=np.arange(n) * dt,
        v_nominal=np.empty(n), v_commanded=np.empty(n), velocity=np.empty(n),
        ke=np.empty(n), tank_energy=np.empty(n), injected_cum=np.empty(n))

    m = plant.mass
    v = plant.velocity
    for i in range(n):
        t = i * dt
        v_nom = float(nominal_profile(t))
        if math.isnan(v_nom):
            raise InputError(f"simulate_loop: nominal speed at t = {t!r} s is nan")
        v_cmd = filter_velocity(v_nom, cfg) if velocity_filter else v_nom

        force = gain * (v_cmd - v)
        # ungated candidate step and the exact work it would perform
        v_next = v + force / m * dt
        work = 0.5 * m * (v_next * v_next - v * v)
        if not math.isfinite(work):
            raise InputError(
                f"gain {gain!r} N s/m on a speed error of {v_cmd - v!r} m/s "
                f"asks for non-finite work at t = {t!r} s")
        granted, tank = tank_step(tank, work / dt, dt, power_cap=cfg.power_cap)
        e_grant = granted * dt
        if work > 0.0 and e_grant < work:
            # throttled injection: apply the force scaled so its work over
            # the step equals the granted energy exactly
            v_next = math.copysign(math.sqrt(max(v * v + 2.0 * e_grant / m, 0.0)),
                                   v_next if v_next != 0.0 else v_cmd - v)
        v = v_next

        log.v_nominal[i] = v_nom
        log.v_commanded[i] = v_cmd
        log.velocity[i] = v
        log.ke[i] = 0.5 * m * v * v
        log.tank_energy[i] = tank.energy
        log.injected_cum[i] = tank.cumulative_injected
    return log
