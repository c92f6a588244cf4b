"""Energy-tank ledger invariants and the filtered velocity loop."""
import math

import numpy as np
import pytest

from pflsafe.body import ContactMode
from pflsafe.errors import InputError
from pflsafe.limits import compute_limit, v0_max
from pflsafe.safety_filter import (FilterConfig, PlantState, TankState,
                                   filter_velocity, simulate_loop, tank_init,
                                   tank_step)

MASS = 5.0
PERIOD = 1e-3


@pytest.fixture(scope="module")
def face_limit(body_table):
    return compute_limit(body_table, "face", ContactMode.TRANSIENT, MASS)


@pytest.fixture(scope="module")
def face_clamped(body_table):
    return compute_limit(body_table, "face", ContactMode.QUASI_STATIC_CLAMPED,
                         MASS)


# ----------------------------------------------------------------- tank

def test_tank_init_state():
    tank = tank_init(2.5)
    assert tank.energy == 2.5
    assert tank.initial_budget == 2.5
    assert tank.cumulative_injected == 0.0
    assert tank.cumulative_recycled == 0.0
    assert not tank.recycling_enabled


def test_tank_grant_is_limited_by_energy():
    tank = tank_init(1.0)
    granted, tank = tank_step(tank, 300.0, 0.01)  # asks for 3 J
    assert granted == pytest.approx(100.0)        # gets the stored 1 J
    assert tank.energy == 0.0
    assert tank.cumulative_injected == 1.0
    granted, tank = tank_step(tank, 5.0, 0.01)
    assert granted == 0.0


def test_tank_grant_respects_power_cap():
    tank = tank_init(10.0)
    granted, tank = tank_step(tank, 500.0, 0.01, power_cap=40.0)
    assert granted == 40.0
    assert tank.energy == pytest.approx(10.0 - 0.4)


def test_tank_zero_request_is_identity():
    tank = tank_init(1.0, recycling_enabled=True)
    granted, after = tank_step(tank, 0.0, 0.01)
    assert granted == 0.0
    assert after is tank


def test_tank_dissipation_passes_through_without_recycling():
    tank = tank_init(1.0)
    granted, after = tank_step(tank, -50.0, 0.01)
    assert granted == -50.0
    assert after is tank  # ledger untouched


def test_tank_recycling_refills_up_to_budget():
    tank = tank_init(1.0, recycling_enabled=True)
    _, tank = tank_step(tank, 80.0, 0.01)     # drain 0.8 J
    assert tank.energy == pytest.approx(0.2)
    granted, tank = tank_step(tank, -30.0, 0.01)  # dissipate 0.3 J
    assert granted == -30.0
    assert tank.energy == pytest.approx(0.5)
    assert tank.cumulative_recycled == pytest.approx(0.3)
    # headroom cap: refill never pushes past the initial budget
    _, tank = tank_step(tank, -500.0, 0.01)
    assert tank.energy == 1.0
    assert tank.cumulative_recycled == pytest.approx(0.8)


def test_tank_zero_budget_never_grants():
    tank = tank_init(0.0)
    for power in (1e-6, 1.0, 1e9):
        granted, tank = tank_step(tank, power, 1e-3)
        assert granted == 0.0
        assert tank.energy == 0.0


def test_tank_ledger_invariants_random_sequences(rng):
    for _ in range(50):
        budget = float(rng.uniform(0.0, 5.0))
        tank = tank_init(budget)
        for _ in range(200):
            power = float(rng.normal(scale=50.0))
            dt = float(rng.uniform(1e-4, 1e-1))
            cap = float(rng.uniform(1.0, 100.0)) if rng.random() < 0.5 else None
            before = tank
            granted, tank = tank_step(tank, power, dt, power_cap=cap)
            assert tank.energy >= 0.0
            assert tank.energy <= before.energy          # no recycling
            assert granted <= power
            if power > 0.0:
                assert granted * dt <= before.energy * (1.0 + 1e-12) + 1e-15
                if cap is not None:
                    assert granted <= cap * (1.0 + 1e-12)
            # balance identity holds exactly, not just approximately
            assert tank.cumulative_injected == budget - tank.energy


def test_tank_recycling_invariants_random_sequences(rng):
    tank = tank_init(2.0, recycling_enabled=True)
    injected = recycled = 0.0
    for _ in range(2000):
        power = float(rng.normal(scale=30.0))
        dt = float(rng.uniform(1e-4, 1e-2))
        granted, tank = tank_step(tank, power, dt)
        assert 0.0 <= tank.energy <= 2.0 + 1e-12
        if granted > 0:
            injected += granted * dt
        assert tank.cumulative_injected == pytest.approx(injected, abs=1e-9)
        assert tank.cumulative_recycled >= recycled
        recycled = tank.cumulative_recycled
    # with recycling, injection may exceed the initial budget
    assert tank.cumulative_injected > 2.0


def test_tank_validation():
    with pytest.raises(InputError, match="initial_budget"):
        tank_init(-1.0)
    with pytest.raises(InputError, match="initial_budget"):
        tank_init(math.inf)
    with pytest.raises(InputError, match="energy"):
        TankState(energy=-0.1, initial_budget=1.0)
    tank = tank_init(1.0)
    with pytest.raises(InputError, match="dt"):
        tank_step(tank, 1.0, 0.0)
    with pytest.raises(InputError, match="requested_power"):
        tank_step(tank, math.nan, 0.01)


# ------------------------------------------------------- velocity filter

def test_filter_velocity_clamps_and_is_idempotent(face_limit):
    cfg = FilterConfig(speed_limit=face_limit, period=PERIOD)
    v_max = face_limit.v0_max
    assert filter_velocity(0.5 * v_max, cfg) == 0.5 * v_max
    assert filter_velocity(10.0, cfg) == v_max
    assert filter_velocity(-10.0, cfg) == -v_max
    assert filter_velocity(filter_velocity(10.0, cfg), cfg) == v_max


def test_filter_saturates_an_infinite_command_and_rejects_nan(face_limit):
    cfg = FilterConfig(speed_limit=face_limit, period=PERIOD)
    v_max = face_limit.v0_max
    assert filter_velocity(math.inf, cfg) == v_max
    assert filter_velocity(-math.inf, cfg) == -v_max
    # max and min would pass a NaN command on as +v0_max
    with pytest.raises(InputError, match="^filter_velocity: nominal must be "):
        filter_velocity(math.nan, cfg)
    for velocity_filter in (True, False):
        with pytest.raises(InputError, match=r"^simulate_loop: nominal speed "
                                             r"at t = 0\.003 s is nan"):
            simulate_loop(PlantState(MASS),
                          lambda t: math.nan if t > 0.0025 else 0.0, cfg,
                          tank_init(1.0), 0.01, velocity_filter=velocity_filter)


def test_filter_config_validation(face_limit):
    with pytest.raises(InputError, match="period"):
        FilterConfig(speed_limit=face_limit, period=0.0)
    with pytest.raises(InputError, match="power_cap"):
        FilterConfig(speed_limit=face_limit, period=PERIOD, power_cap=-1.0)


def test_plant_validation():
    with pytest.raises(InputError, match="mass"):
        PlantState(mass=0.0)


# -------------------------------------------------------------- the loop

def test_loop_settles_at_the_speed_limit(face_limit):
    cfg = FilterConfig(speed_limit=face_limit, period=PERIOD)
    plant = PlantState(mass=MASS)
    log = simulate_loop(plant, lambda t: 10.0, cfg, tank_init(1.0),
                        duration=1.0)
    assert np.all(log.v_nominal == 10.0)
    assert np.all(log.v_commanded == face_limit.v0_max)
    assert np.max(np.abs(log.velocity)) <= face_limit.v0_max + 1e-12
    assert log.velocity[-1] == pytest.approx(face_limit.v0_max, rel=1e-6)
    assert plant == PlantState(mass=MASS)


def test_loop_leaves_the_plant_state_unchanged(face_limit):
    # the caller's state is the initial condition only: a second run from
    # the same object repeats the first, and both equal a run from a copy
    cfg = FilterConfig(speed_limit=face_limit, period=PERIOD)
    plant = PlantState(mass=MASS, velocity=0.05)
    runs = [simulate_loop(state, lambda t: 10.0, cfg, tank_init(1.0),
                          duration=0.5)
            for state in (plant, plant, PlantState(MASS, 0.05))]
    assert plant == PlantState(mass=MASS, velocity=0.05)
    assert runs[0].velocity[-1] > 0.05
    for log in runs[1:]:
        for name in ("t", "v_nominal", "v_commanded", "velocity", "ke",
                     "tank_energy", "injected_cum"):
            assert np.array_equal(getattr(log, name), getattr(runs[0], name))


def test_loop_kinetic_energy_never_exceeds_injection(face_limit, rng):
    cfg = FilterConfig(speed_limit=face_limit, period=PERIOD)
    profile = lambda t: float(3.0 * math.sin(40.0 * t))
    log = simulate_loop(PlantState(mass=MASS), profile, cfg, tank_init(0.5),
                        duration=1.0, velocity_filter=False)
    assert np.all(log.ke <= log.injected_cum + 1e-12)
    assert np.all(log.tank_energy >= 0.0)
    assert np.all(np.diff(log.tank_energy) <= 1e-15)  # recycling off


def test_loop_budget_bounds_speed_even_without_filter(face_limit):
    # budget equal to the elastic energy budget: the plant can never carry
    # more kinetic energy than the contact may absorb, so the clamped-case
    # speed bound holds even though the velocity filter is off
    u = face_limit.u_s_max
    cfg = FilterConfig(speed_limit=face_limit, period=PERIOD)
    log = simulate_loop(PlantState(mass=MASS), lambda t: 10.0, cfg,
                        tank_init(u), duration=2.0, velocity_filter=False)
    assert np.max(log.ke) <= u + 1e-12
    assert np.max(np.abs(log.velocity)) <= v0_max(u, MASS, math.inf) + 1e-9


def test_loop_passivity_does_not_imply_safety(face_limit):
    # counterexample: a generous tank keeps every ledger invariant while
    # the plant blows straight past the admissible speed
    cfg = FilterConfig(speed_limit=face_limit, period=PERIOD)
    tank = tank_init(1e6)
    log = simulate_loop(PlantState(mass=MASS), lambda t: 10.0, cfg, tank,
                        duration=1.0, velocity_filter=False)
    assert np.max(np.abs(log.velocity)) > 50.0 * face_limit.v0_max
    assert np.all(log.tank_energy >= 0.0)
    assert np.all(log.injected_cum <= 1e6)


def test_loop_clamped_limit_is_slower(face_limit, face_clamped):
    assert face_clamped.v0_max < face_limit.v0_max
    cfg = FilterConfig(speed_limit=face_clamped, period=PERIOD)
    log = simulate_loop(PlantState(mass=MASS), lambda t: 10.0, cfg,
                        tank_init(1.0), duration=1.0)
    assert log.velocity[-1] == pytest.approx(face_clamped.v0_max, rel=1e-6)


def test_loop_tracks_admissible_command_exactly(face_limit):
    cfg = FilterConfig(speed_limit=face_limit, period=PERIOD)
    target = 0.5 * face_limit.v0_max
    log = simulate_loop(PlantState(mass=MASS), lambda t: target, cfg,
                        tank_init(1.0), duration=1.0)
    assert np.all(log.v_commanded == target)
    assert log.velocity[-1] == pytest.approx(target, rel=1e-6)


def test_loop_power_cap_slows_the_rise(face_limit):
    cfg = FilterConfig(speed_limit=face_limit, period=PERIOD)
    capped = FilterConfig(speed_limit=face_limit, period=PERIOD,
                          power_cap=0.01)
    free = simulate_loop(PlantState(mass=MASS), lambda t: 10.0, cfg,
                         tank_init(1.0), duration=0.2)
    slow = simulate_loop(PlantState(mass=MASS), lambda t: 10.0, capped,
                         tank_init(1.0), duration=0.2)
    k = len(free.t) // 4
    assert slow.velocity[k] < free.velocity[k]
    assert np.max(np.diff(slow.ke)) <= 0.01 * PERIOD + 1e-15


def test_loop_custom_gain_and_validation(face_limit):
    cfg = FilterConfig(speed_limit=face_limit, period=PERIOD)
    log = simulate_loop(PlantState(mass=MASS), lambda t: 1.0, cfg,
                        tank_init(1.0), duration=0.5, gain=5.0 * MASS)
    assert np.max(np.abs(log.velocity)) <= face_limit.v0_max + 1e-12
    with pytest.raises(InputError, match="duration"):
        simulate_loop(PlantState(mass=MASS), lambda t: 1.0, cfg,
                      tank_init(1.0), duration=0.0)
    with pytest.raises(InputError, match="gain"):
        simulate_loop(PlantState(mass=MASS), lambda t: 1.0, cfg,
                      tank_init(1.0), duration=1.0, gain=-2.0)


def test_loop_log_csv(face_limit, tmp_path):
    cfg = FilterConfig(speed_limit=face_limit, period=PERIOD)
    log = simulate_loop(PlantState(mass=MASS), lambda t: 10.0, cfg,
                        tank_init(1.0), duration=0.01)
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,v_nominal,v_commanded,ke,tank_energy,injected_cum"
    assert len(lines) == 1 + len(log.t)
    cells = lines[1].split(",")
    assert len(cells) == 6
    assert float(cells[0]) == 0.0
    assert float(cells[1]) == 10.0
    # exact float round trip
    assert float(lines[2].split(",")[3]) == log.ke[1]
