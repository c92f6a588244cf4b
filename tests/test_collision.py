"""Two-mass-spring collision model: closed forms vs integrated trajectories.

The closed-form peak state and the RK4 simulation are independent routes to
the same quantities; each test uses one as the oracle for the other.
"""
import dataclasses
import math

import numpy as np
import pytest

from pflsafe.collision import (CollisionScenario, _extract_outcome,
                               _release_time, _rk4_step, natural_period,
                               peak_contact_state, simulate, total_energy)
from pflsafe.errors import InputError

# hand-evaluated closed forms for (m_r=3, m_h=1, k=5, v0=1):
#   mu = 3/4, dx = sqrt(0.75/5), f = k*dx, t* = (pi/2)*sqrt(0.75/5)
FREE = CollisionScenario(m_r=3.0, m_h=1.0, k=5.0, v0=1.0)
FREE_DX = 0.3872983346207417
FREE_F = 1.9364916731037085
FREE_T = 0.6083668013960418
FREE_PERIOD = 2.4334672055841673

CLAMPED = CollisionScenario(m_r=3.0, m_h=math.inf, k=5.0, v0=1.0)
CLAMPED_DX = 0.7745966692414834
CLAMPED_F = 3.872983346207417


def test_reduced_mass_and_common_velocity():
    assert FREE.reduced_mass == pytest.approx(0.75, rel=1e-15)
    assert peak_contact_state(FREE).v_star == pytest.approx(0.75, rel=1e-15)
    assert CLAMPED.reduced_mass == 3.0
    assert peak_contact_state(CLAMPED).v_star == 0.0


def test_energy_transfer_and_period():
    assert peak_contact_state(FREE).delta_k == pytest.approx(0.375, rel=1e-15)
    assert natural_period(FREE) == pytest.approx(FREE_PERIOD, rel=1e-12)


def test_peak_contact_state_closed_form():
    peak = peak_contact_state(FREE)
    assert peak.dx_max == pytest.approx(FREE_DX, rel=1e-12)
    assert peak.f_peak == pytest.approx(FREE_F, rel=1e-12)
    assert peak.t_star == pytest.approx(FREE_T, rel=1e-12)
    assert not peak.degenerate

    clamped = peak_contact_state(CLAMPED)
    assert clamped.dx_max == pytest.approx(CLAMPED_DX, rel=1e-12)
    assert clamped.f_peak == pytest.approx(CLAMPED_F, rel=1e-12)


def test_simulation_matches_closed_form_free():
    traj, outcome = simulate(FREE)
    assert outcome.dx_max == pytest.approx(FREE_DX, rel=1e-8)
    assert outcome.f_peak == pytest.approx(FREE_F, rel=1e-8)
    assert outcome.t_star == pytest.approx(FREE_T, rel=1e-6)
    assert outcome.v_star == pytest.approx(0.75, rel=1e-6)
    assert outcome.delta_k == pytest.approx(0.375, rel=1e-8)
    assert outcome.k0 == pytest.approx(1.5, rel=1e-15)
    assert outcome.k_star == pytest.approx(1.5 - 0.375, rel=1e-7)


def test_simulation_matches_closed_form_clamped():
    traj, outcome = simulate(CLAMPED)
    assert outcome.dx_max == pytest.approx(CLAMPED_DX, rel=1e-8)
    assert outcome.f_peak == pytest.approx(CLAMPED_F, rel=1e-8)
    assert outcome.v_star == 0.0
    assert np.all(traj.v_h == 0.0)


def test_energy_conserved_throughout():
    traj, _ = simulate(FREE)
    e = total_energy(FREE, traj)
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-9


def test_momentum_conserved_free():
    traj, _ = simulate(FREE)
    p = FREE.m_r * traj.v_r + FREE.m_h * traj.v_h
    assert np.max(np.abs(p - FREE.m_r * FREE.v0)) < 1e-9


def test_elastic_restitution_after_release():
    # elastic two-body impact: v_r' = (m_r-m_h)/(m_r+m_h) v0, v_h' = 2 m_r v0/(m_r+m_h)
    traj, _ = simulate(FREE)
    assert traj.dx[-1] == 0.0
    assert traj.v_r[-1] == pytest.approx(0.5, abs=1e-6)
    assert traj.v_h[-1] == pytest.approx(1.5, abs=1e-6)


def test_compression_never_negative_with_detachment():
    traj, _ = simulate(FREE)
    assert np.min(traj.dx) >= 0.0


def test_degenerate_zero_speed():
    scenario = CollisionScenario(m_r=3.0, m_h=1.0, k=5.0, v0=0.0)
    assert peak_contact_state(scenario).degenerate
    traj, outcome = simulate(scenario)
    assert outcome.degenerate
    assert outcome.f_peak == 0.0
    assert np.all(traj.dx == 0.0)


def test_step_and_horizon_follow_the_period():
    for scenario in (FREE, CLAMPED, CollisionScenario(3.0, 1.0, 5.0, 0.0)):
        traj, _ = simulate(scenario)
        period = natural_period(scenario)
        assert traj.dt == period / 1000.0
        assert len(traj.t) == 751
        assert traj.t[-1] == pytest.approx(0.75 * period, rel=1e-12)


#: the message of a scenario whose reduced mass or contact period a float
#: does not resolve: it names m_r, m_h and k
PERIOD_ERROR = (r"^m_r = .* kg, m_h = .* kg, k = .* N/m: m_r m_h = .* kg\^2 "
                r"and mu / k = .* s\^2 must be finite normal floats$")


def test_coarse_step_rejected():
    # the step period / 1000 rounds to 0 here; the scenario is rejected
    # before any step is taken
    with pytest.raises(InputError, match=PERIOD_ERROR):
        CollisionScenario(m_r=1e-300, m_h=1e-300, k=1e300, v0=1.0)


@pytest.mark.parametrize("kwargs", [
    dict(m_r=1e200, m_h=1e200, k=1.0, v0=1e-110),       # mu overflows: inf
    dict(m_r=1.75e308, m_h=1.75e308, k=5.0, v0=1.0),    # mu is nan
    dict(m_r=3.0, m_h=math.inf, k=1e-320, v0=1.0),      # mu / k is inf
    dict(m_r=1e-300, m_h=1e-300, k=5.0, v0=1.0),        # m_r m_h is 0
    dict(m_r=5e-324, m_h=1.0, k=5e-324, v0=1.0),        # m_r m_h subnormal
    dict(m_r=3.0, m_h=1.0, k=1.75e308, v0=1.0),         # mu / k subnormal
    dict(m_r=1e-300, m_h=math.inf, k=1e10, v0=0.0),     # ... at rest too
    dict(m_r=1e-300, m_h=math.inf, k=1e10, v0=1.0),
])
def test_bad_step_or_horizon_rejected(kwargs):
    # a period of 0, inf or nan, or one computed from subnormal floats,
    # would make simulate's step and horizon the same
    with pytest.raises(InputError, match=PERIOD_ERROR):
        CollisionScenario(**kwargs)


def test_unbracketed_peak_rejected():
    traj, _ = simulate(FREE)
    early = dataclasses.replace(traj, t=traj.t[:100], v_r=traj.v_r[:100],
                                v_h=traj.v_h[:100], dx=traj.dx[:100])
    with pytest.raises(InputError,
                       match="^peak compression at sample 99 of 100: not "
                             "bracketed by the trajectory$"):
        _extract_outcome(FREE, early)


@pytest.mark.parametrize("kwargs", [
    pytest.param(dict(m_r=3.0, m_h=1.0, k=5.0, v0=5e-324), id="dx-5e-324"),
    pytest.param(dict(m_r=3.0, m_h=1.0, k=5.0, v0=1e-320), id="dx-1e-320"),
    pytest.param(dict(m_r=1.0, m_h=math.inf, k=1e-300, v0=1e150),
                 id="dx-squared-inf"),
    pytest.param(dict(m_r=1e-20, m_h=math.inf, k=1e-200, v0=1e-212),
                 id="force-subnormal"),
    pytest.param(dict(m_r=1e20, m_h=math.inf, k=1e-200, v0=1e-212),
                 id="acceleration-subnormal"),
    pytest.param(dict(m_r=1e-300, m_h=math.inf, k=3.6e7, v0=6e153),
                 id="6-accelerations-inf"),
    pytest.param(dict(m_r=1.0, m_h=1e-3, k=1.0, v0=1e154),
                 id="rebound-speed-squared-inf"),
])
def test_peak_state_outside_the_normal_floats_rejected(kwargs):
    # each used to end in a traceback, a warning, an infinite outcome, an
    # unbracketed peak or a peak 5e-4 to 7 % off its closed form
    with pytest.raises(InputError, match=(
            r"^v0 = .* m/s, m_r = .* kg, m_h = .* kg, k = .* N/m: the peak "
            r"compression v0 sqrt\(mu / k\) = .* m, force .* N and "
            r"acceleration .* m/s\^2 must be normal floats")):
        CollisionScenario(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(m_r=1e-300, m_h=1.0, k=5.0, v0=1.0),
    dict(m_r=3.0, m_h=1e300, k=5.0, v0=1e-300),
    dict(m_r=3.0, m_h=math.inf, k=1e300, v0=1.0),
    dict(m_r=1.0, m_h=math.inf, k=1.0, v0=1e150),
    dict(m_r=1e-20, m_h=1e-20, k=1e-20, v0=1e100),
])
def test_extreme_scenarios_inside_the_rule_match_closed_forms(kwargs):
    scenario = CollisionScenario(**kwargs)
    peak = peak_contact_state(scenario)
    traj, outcome = simulate(scenario)
    assert outcome.dx_max == pytest.approx(peak.dx_max, rel=1e-12)
    assert outcome.f_peak == pytest.approx(peak.f_peak, rel=1e-12)
    assert outcome.t_star == pytest.approx(peak.t_star, rel=1e-10)
    energy = total_energy(scenario, traj)
    assert np.isfinite(energy).all()


@pytest.mark.parametrize("kwargs", [
    dict(m_r=0.0, m_h=1.0, k=5.0, v0=1.0),
    dict(m_r=math.inf, m_h=1.0, k=5.0, v0=1.0),
    dict(m_r=3.0, m_h=-1.0, k=5.0, v0=1.0),
    dict(m_r=3.0, m_h=1.0, k=0.0, v0=1.0),
    dict(m_r=3.0, m_h=1.0, k=5.0, v0=-0.2),
    dict(m_r=3.0, m_h=math.nan, k=5.0, v0=1.0),
])
def test_invalid_scenarios_rejected(kwargs):
    # the one argument that differs from the valid FREE scenario
    key, = [key for key, value in kwargs.items() if value != getattr(FREE, key)]
    value = kwargs[key]
    bound = ("finite" if not math.isfinite(value)
             else ">= 0" if key == "v0" else "> 0")
    with pytest.raises(InputError,
                       match=f"^CollisionScenario: {key} must be {bound}"):
        CollisionScenario(**kwargs)


def test_random_scenarios_match_closed_forms(rng):
    # property check over the full operating envelope (acceptance runs the
    # larger version of this sweep)
    for _ in range(40):
        scenario = CollisionScenario(
            m_r=float(rng.uniform(0.5, 100.0)),
            m_h=float(rng.uniform(0.5, 100.0)) if rng.random() < 0.8 else math.inf,
            k=float(10.0 ** rng.uniform(2.0, 6.0)),
            v0=float(rng.uniform(0.05, 3.0)),
        )
        peak = peak_contact_state(scenario)
        _, outcome = simulate(scenario)
        assert outcome.dx_max == pytest.approx(peak.dx_max, rel=5e-3)
        assert outcome.f_peak == pytest.approx(peak.f_peak, rel=5e-3)
        assert outcome.delta_k == pytest.approx(peak.delta_k, rel=5e-3)


def test_total_energy_clamped_counts_robot_and_spring_only():
    traj, _ = simulate(CLAMPED)
    e = total_energy(CLAMPED, traj)
    assert e[0] == pytest.approx(0.5 * 3.0 * 1.0, rel=1e-12)
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-9


def test_trajectory_matches_linear_oscillator_until_release(rng):
    # exact solution of the two-mass oscillator while in contact, at every
    # sample, with omega = sqrt(k / mu):
    #   dx = (v0 / omega) sin(omega t)
    #   v_r = v0 - (mu / m_r) v0 (1 - cos(omega t))
    #   v_h = (mu / m_h) v0 (1 - cos(omega t))     (0 when clamped)
    for i in range(52):
        scenario = CollisionScenario(
            m_r=float(rng.uniform(0.5, 100.0)),
            m_h=float(rng.uniform(0.5, 100.0)) if i % 2 else math.inf,
            k=float(10.0 ** rng.uniform(2.0, 6.0)),
            v0=float(rng.uniform(0.05, 3.0)))
        traj, _ = simulate(scenario)
        mu, v0 = scenario.reduced_mass, scenario.v0
        omega = math.sqrt(scenario.k / mu)
        contact = traj.t < math.pi / omega
        t = traj.t[contact]
        ramp = v0 * (1.0 - np.cos(omega * t))
        dx = (v0 / omega) * np.sin(omega * t)
        v_r = v0 - mu / scenario.m_r * ramp
        v_h = mu / scenario.m_h * ramp
        assert np.max(np.abs(traj.dx[contact] - dx)) < 1e-9 * v0 / omega
        assert np.max(np.abs(traj.v_r[contact] - v_r)) < 1e-9 * v0
        assert np.max(np.abs(traj.v_h[contact] - v_h)) < 1e-9 * v0


def _closure_rk4_step(state, h, m_r, m_h, k):
    """The reference step: one slope closure, each stage a tuple."""

    def deriv(v_r, v_h, dx):
        f = k * dx
        return (-f / m_r, f / m_h, v_r - v_h)

    v_r, v_h, dx = state
    a1 = deriv(v_r, v_h, dx)
    a2 = deriv(v_r + 0.5 * h * a1[0], v_h + 0.5 * h * a1[1], dx + 0.5 * h * a1[2])
    a3 = deriv(v_r + 0.5 * h * a2[0], v_h + 0.5 * h * a2[1], dx + 0.5 * h * a2[2])
    a4 = deriv(v_r + h * a3[0], v_h + h * a3[1], dx + h * a3[2])
    return (
        v_r + h / 6.0 * (a1[0] + 2.0 * a2[0] + 2.0 * a3[0] + a4[0]),
        v_h + h / 6.0 * (a1[1] + 2.0 * a2[1] + 2.0 * a3[1] + a4[1]),
        dx + h / 6.0 * (a1[2] + 2.0 * a2[2] + 2.0 * a3[2] + a4[2]),
    )


def _closure_trajectory(scenario):
    """The reference integration: every sample stepped with the closure
    step, the release found by bisecting it; returns the (v_r, v_h, dx)
    rows and the release time."""
    dt = natural_period(scenario) / 1000.0
    m_r, m_h, k = scenario.m_r, scenario.m_h, scenario.k
    state, rows, tau = (scenario.v0, 0.0, 0.0), [(scenario.v0, 0.0, 0.0)], None
    for _ in range(1, 751):
        if tau is None:
            new = _closure_rk4_step(state, dt, m_r, m_h, k)
            if new[2] < 0.0 and state[2] > 0.0:
                lo, hi = 0.0, dt
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if _closure_rk4_step(state, mid, m_r, m_h, k)[2] > 0.0:
                        lo = mid
                    else:
                        hi = mid
                tau = 0.5 * (lo + hi)
                assert _release_time(*state, dt, m_r, m_h, k) == tau
                new = _closure_rk4_step(state, tau, m_r, m_h, k)[:2] + (0.0,)
            else:
                assert _rk4_step(*state, dt, m_r, m_h, k) == new
            state = new
        rows.append(state)
    return np.array(rows).T, tau


@pytest.mark.parametrize("scenario", [FREE, CLAMPED,
                                      CollisionScenario(7.3, 4.4, 7.5e4, 0.2)],
                         ids=["free", "clamped", "free-stiff"])
def test_rk4_step_matches_the_closure_step(scenario):
    (v_r, v_h, dx), tau = _closure_trajectory(scenario)
    traj, _ = simulate(scenario)
    assert tau is not None  # the trajectory runs through the release
    for name, column in (("v_r", v_r), ("v_h", v_h), ("dx", dx)):
        assert np.array_equal(getattr(traj, name).view(np.int64),
                              column.view(np.int64)), name
