"""Energy-tank ledger invariants and the filtered velocity loop."""
import dataclasses
import math

import numpy as np
import pytest

from pflsafe import safety_filter
from pflsafe.body import ContactMode
from pflsafe.errors import InputError
from pflsafe.limits import compute_limit, v0_max
from pflsafe.safety_filter import (LoopLog, TankState, filter_velocity,
                                   simulate_loop, tank_init, tank_step)
from pflsafe.schema import CSV_BLOCK_ROWS

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


def test_a_capped_grant_reports_the_cap_bit_for_bit():
    # 7.0 * 0.01 / 0.01 is 7.000000000000001: a capped grant reported as
    # its energy over dt would miss the cap by an ulp
    cap, dt = 7.0, 0.01
    assert cap * dt / dt != cap
    granted, tank = tank_step(tank_init(10.0), 500.0, dt, power_cap=cap)
    assert granted == cap
    assert tank.cumulative_injected == cap * dt


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
        injected = 0.0
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
            # the ledger is the running sum of every grant (the request up
            # to the power cap and the energy held), capped at the budget
            if power > 0.0:
                e_grant = min(power * dt, before.energy)
                if cap is not None:
                    e_grant = min(e_grant, cap * dt)
                injected = min(injected + e_grant, budget)
            assert tank.cumulative_injected == injected
            assert tank.cumulative_injected <= budget


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
    v_max = face_limit.v0_max
    assert filter_velocity(0.5 * v_max, face_limit) == 0.5 * v_max
    assert filter_velocity(10.0, face_limit) == v_max
    assert filter_velocity(-10.0, face_limit) == -v_max
    assert filter_velocity(filter_velocity(10.0, face_limit), face_limit) == v_max


def test_filter_saturates_an_infinite_command_and_rejects_nan(face_limit):
    v_max = face_limit.v0_max
    assert filter_velocity(math.inf, face_limit) == v_max
    assert filter_velocity(-math.inf, face_limit) == -v_max
    # max and min would pass a NaN command on as +v0_max
    with pytest.raises(InputError, match="^filter_velocity: nominal must be "):
        filter_velocity(math.nan, face_limit)
    for velocity_filter in (True, False):
        with pytest.raises(InputError, match=r"^simulate_loop: nominal speed "
                                             r"at t = 0\.003 s is nan"):
            simulate_loop(face_limit, MASS,
                          lambda t: math.nan if t > 0.0025 else 0.0, 1.0,
                          0.01, PERIOD, velocity_filter=velocity_filter)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("v0_max", [None, 0.0], ids=["face", "zero-limit"])
def test_filter_on_an_array_matches_the_float_form(face_limit, v0_max):
    limit = (face_limit if v0_max is None
             else dataclasses.replace(face_limit, v0_max=v0_max, k0_max=0.0))
    v = limit.v0_max
    nominal = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, v, -v,
               0.5 * v, 10.0, -10.0]
    singles = [filter_velocity(x, limit) for x in nominal]
    assert {type(x) for x in singles} == {float}
    # bit for bit, signed zeros included: np.clip gives +0.0 for x >= 0 at
    # v0_max == 0, where the scalar min and max give -0.0
    assert (_bits(filter_velocity(np.array(nominal), limit)) == _bits(singles)
            == _bits([max(-v, min(v, x)) for x in nominal]))
    with pytest.raises(InputError, match="^filter_velocity: nominal must be "):
        filter_velocity(np.array([0.0, math.nan, 1.0]), limit)


def test_loop_raises_the_first_error_by_step(face_limit):
    # a non-finite power at step 2 comes before the NaN at step 5
    speeds = {2: math.inf, 5: math.nan}
    with pytest.raises(InputError, match=r"non-finite power at t = 0\.002 s"):
        simulate_loop(face_limit, MASS,
                      lambda t: speeds.get(round(t / PERIOD), 0.1), 1.0,
                      0.01, PERIOD, velocity_filter=False)


def test_filter_config_validation(face_limit):
    with pytest.raises(InputError, match="^simulate_loop: period"):
        simulate_loop(face_limit, MASS, lambda t: 1.0, 1.0, 0.01, 0.0)
    with pytest.raises(InputError, match="^simulate_loop: power_cap"):
        simulate_loop(face_limit, MASS, lambda t: 1.0, 1.0, 0.01, PERIOD,
                      power_cap=-1.0)


def test_plant_validation(face_limit):
    with pytest.raises(InputError, match="^simulate_loop: mass"):
        simulate_loop(face_limit, 0.0, lambda t: 1.0, 1.0, 0.01, PERIOD)
    with pytest.raises(InputError, match="^simulate_loop: budget"):
        simulate_loop(face_limit, MASS, lambda t: 1.0, -1.0, 0.01, PERIOD)


# -------------------------------------------------------------- the loop

def test_loop_settles_at_the_speed_limit(face_limit):
    log = simulate_loop(face_limit, MASS, lambda t: 10.0, 1.0, 1.0, PERIOD)
    assert np.all(log.v_nominal == 10.0)
    assert np.all(log.v_commanded == face_limit.v0_max)
    assert np.max(np.abs(log.velocity)) <= face_limit.v0_max + 1e-12
    assert log.velocity[-1] == pytest.approx(face_limit.v0_max, rel=1e-6)


def test_loop_kinetic_energy_never_exceeds_injection(face_limit, rng):
    profile = lambda t: float(3.0 * math.sin(40.0 * t))
    log = simulate_loop(face_limit, MASS, profile, 0.5, 1.0, PERIOD,
                        velocity_filter=False)
    assert np.all(log.ke <= log.injected_cum + 1e-12)
    assert np.all(log.tank_energy >= 0.0)
    assert np.all(np.diff(log.tank_energy) <= 1e-15)  # recycling off


#: most ulps (of the larger of the two) by which ke may exceed injected_cum.
#: No ledger bounds ke exactly: the plant and the ledger round their own
#: sums of the same grants.  The grid's worst is 24, after 493 steps
#: throttled by the power cap, with recycling on or off; a ledger that
#: rounds away the grants below half the budget's spacing gives 9e15.
LEDGER_ULPS = 32


def test_loop_ledger_keeps_every_grant_over_the_grid(body_table):
    # 3 regions x 2 modes x 9 budgets, with recycling, the velocity filter
    # and a power cap each on and off
    worst = 0.0
    for region in ("face", "chest", "lower_legs"):
        for mode in (ContactMode.TRANSIENT, ContactMode.QUASI_STATIC_CLAMPED):
            limit = compute_limit(body_table, region, mode, 4.0)
            nominal = lambda t: 2.0 * limit.v0_max
            for budget in (1e-3, limit.k0_max, limit.u_s_max, 1.0, 1e6, 1e9,
                           1e12, 1e15, 1e300):
                for recycling in (False, True):
                    for power_cap in (None, 1.0):
                        for velocity_filter in (False, True):
                            log = simulate_loop(
                                limit, 4.0, nominal, budget, 0.5, PERIOD,
                                recycling=recycling, power_cap=power_cap,
                                velocity_filter=velocity_filter)
                            larger = np.maximum(log.ke, log.injected_cum)
                            worst = max(worst, float(np.max(
                                (log.ke - log.injected_cum)
                                / np.spacing(larger))))
    assert worst <= LEDGER_ULPS


def test_loop_budget_bounds_speed_even_without_filter(face_limit):
    # budget equal to the elastic energy budget: the plant can never carry
    # more kinetic energy than the contact may absorb, so the clamped-case
    # speed bound holds even though the velocity filter is off
    u = face_limit.u_s_max
    log = simulate_loop(face_limit, MASS, lambda t: 10.0, u, 2.0, PERIOD,
                        velocity_filter=False)
    assert np.max(log.ke) <= u + 1e-12
    assert np.max(np.abs(log.velocity)) <= v0_max(u, MASS, math.inf) + 1e-9


def test_loop_passivity_does_not_imply_safety(face_limit):
    # counterexample: a generous tank keeps every ledger invariant while
    # the plant blows straight past the admissible speed
    log = simulate_loop(face_limit, MASS, lambda t: 10.0, 1e6, 1.0, PERIOD,
                        velocity_filter=False)
    assert np.max(np.abs(log.velocity)) > 50.0 * face_limit.v0_max
    assert np.all(log.tank_energy >= 0.0)
    assert np.all(log.injected_cum <= 1e6)


def test_loop_clamped_limit_is_slower(face_limit, face_clamped):
    assert face_clamped.v0_max < face_limit.v0_max
    log = simulate_loop(face_clamped, MASS, lambda t: 10.0, 1.0, 1.0, PERIOD)
    assert log.velocity[-1] == pytest.approx(face_clamped.v0_max, rel=1e-6)


def test_loop_tracks_admissible_command_exactly(face_limit):
    target = 0.5 * face_limit.v0_max
    log = simulate_loop(face_limit, MASS, lambda t: target, 1.0, 1.0, PERIOD)
    assert np.all(log.v_commanded == target)
    assert log.velocity[-1] == pytest.approx(target, rel=1e-6)


def test_loop_power_cap_slows_the_rise(face_limit):
    free = simulate_loop(face_limit, MASS, lambda t: 10.0, 1.0, 0.2, PERIOD)
    slow = simulate_loop(face_limit, MASS, lambda t: 10.0, 1.0, 0.2, PERIOD,
                         power_cap=0.01)
    k = len(free.t) // 4
    assert slow.velocity[k] < free.velocity[k]
    assert np.max(np.diff(slow.ke)) <= 0.01 * PERIOD + 1e-15


def test_loop_custom_gain_and_validation(face_limit):
    log = simulate_loop(face_limit, MASS, lambda t: 1.0, 1.0, 0.5, PERIOD,
                        gain=5.0 * MASS)
    assert np.max(np.abs(log.velocity)) <= face_limit.v0_max + 1e-12
    with pytest.raises(InputError, match="duration"):
        simulate_loop(face_limit, MASS, lambda t: 1.0, 1.0, 0.0, PERIOD)
    with pytest.raises(InputError, match="gain"):
        simulate_loop(face_limit, MASS, lambda t: 1.0, 1.0, 1.0, PERIOD,
                      gain=-2.0)


def _tank_step_loop(limit, mass, profile, budget, duration, period, *,
                    recycling, power_cap, velocity_filter):
    """The loop written on ``tank_step``: a ``TankState`` carried through
    one call per period, the log's columns as rows."""
    gain = 20.0 * mass
    tank = tank_init(budget, recycling_enabled=recycling)
    v, rows = 0.0, []
    for i in range(int(round(duration / period)) + 1):
        t = i * period
        v_nom = float(profile(t))
        v_cmd = filter_velocity(v_nom, limit) if velocity_filter else v_nom
        force = gain * (v_cmd - v)
        v_next = v + force / mass * period
        work = 0.5 * mass * (v_next * v_next - v * v)
        granted, tank = tank_step(tank, work / period, period,
                                  power_cap=power_cap)
        e_grant = granted * period
        if work > 0.0 and e_grant < work:
            v_next = math.copysign(
                math.sqrt(max(v * v + 2.0 * e_grant / mass, 0.0)),
                v_next if v_next != 0.0 else v_cmd - v)
        v = v_next
        rows.append((t, v_nom, v_cmd, v, 0.5 * mass * v * v, tank.energy,
                     tank.cumulative_injected))
    return rows


@pytest.mark.parametrize("velocity_filter", [True, False],
                         ids=["filter", "no-filter"])
@pytest.mark.parametrize("power_cap", [None, 0.5], ids=["no-cap", "cap"])
@pytest.mark.parametrize("recycling", [False, True],
                         ids=["no-recycling", "recycling"])
def test_loop_keeps_the_tank_step_formula(face_limit, recycling, power_cap,
                                          velocity_filter):
    # a speed-up, then a reversal that dissipates (and may recycle)
    profile = lambda t: 10.0 if t < 0.08 else -0.3
    for budget in (0.02, 1.0):  # 0.02 J runs out: the tank throttles
        log = simulate_loop(face_limit, MASS, profile, budget, 0.2, PERIOD,
                            recycling=recycling, power_cap=power_cap,
                            velocity_filter=velocity_filter)
        reference = np.array(_tank_step_loop(
            face_limit, MASS, profile, budget, 0.2, PERIOD,
            recycling=recycling, power_cap=power_cap,
            velocity_filter=velocity_filter)).T
        for name, column in zip(("t", "v_nominal", "v_commanded", "velocity",
                                 "ke", "tank_energy", "injected_cum"),
                                reference):
            assert np.array_equal(getattr(log, name), column), name
        if budget == 0.02:
            assert np.min(log.tank_energy) == 0.0
        if power_cap is not None:
            assert np.max(np.diff(log.injected_cum)) == pytest.approx(
                power_cap * PERIOD)
        # the reversal refills the tank only with recycling
        assert np.any(np.diff(log.tank_energy) > 0.0) == recycling


_LOG_COLUMNS = ("t", "v_nominal", "v_commanded", "velocity", "ke",
                "tank_energy", "injected_cum")


@pytest.mark.parametrize("recycling", [False, True],
                         ids=["no-recycling", "recycling"])
def test_loop_stops_stepping_once_its_state_stalls(face_limit, recycling,
                                                   monkeypatch):
    steps = []
    tank_grant = safety_filter._tank_grant

    def counting(*args):
        steps.append(args)
        return tank_grant(*args)

    def run(profile, budget, check_steps):
        monkeypatch.setattr(safety_filter, "STALL_CHECK_STEPS", check_steps)
        steps.clear()
        log = simulate_loop(face_limit, MASS, profile, budget, 3.0, PERIOD,
                            recycling=recycling)
        return log, len(steps)

    monkeypatch.setattr(safety_filter, "_tank_grant", counting)
    check_steps = safety_filter.STALL_CHECK_STEPS
    # a small tank runs dry on the way up, and an empty or signed-zero one
    # grants nothing: the state stalls before the profile turns round at
    # 0.6 s, where the loop must go on, and again after it.  A budget of
    # -0.0 turns the first step's tank energy and speed into signed zeros
    # that compare equal to, but are not, the state before.
    turns = lambda t: 10.0 if t < 0.6 else -0.3
    for budget in (0.02, 0.0, -0.0):
        for profile in (turns, lambda t: -0.3):
            log, stepped = run(profile, budget, check_steps)
            # the plain loop: its one check comes after the last step
            plain, every = run(profile, budget, 10 ** 9)
            assert every == len(log.t)
            assert stepped < len(log.t) - check_steps
            assert stepped > 600 or profile is not turns
            for name in _LOG_COLUMNS:
                assert (_bits(getattr(log, name))
                        == _bits(getattr(plain, name))), name
    # and the loop written on tank_step
    log, _ = run(turns, 0.02, check_steps)
    reference = _tank_step_loop(face_limit, MASS, turns, 0.02, 3.0, PERIOD,
                                recycling=recycling, power_cap=None,
                                velocity_filter=True)
    for name, column in zip(_LOG_COLUMNS, zip(*reference)):
        assert _bits(getattr(log, name)) == _bits(column), name


@pytest.mark.parametrize("recycling", [False, True],
                         ids=["no-recycling", "recycling"])
def test_loop_and_tank_step_agree_on_an_empty_tank(face_limit, recycling):
    # a grant from a tank of -0.0 leaves 0.0 (-0.0 - -0.0), which compares
    # equal to the state before but is not it: both ledgers must write it
    profile = lambda t: 10.0 if t < 0.08 else -0.3
    for budget in (0.0, -0.0):
        log = simulate_loop(face_limit, MASS, profile, budget, 0.2, PERIOD,
                            recycling=recycling)
        reference = _tank_step_loop(face_limit, MASS, profile, budget, 0.2,
                                    PERIOD, recycling=recycling,
                                    power_cap=None, velocity_filter=True)
        for name, column in zip(_LOG_COLUMNS, zip(*reference)):
            assert _bits(getattr(log, name)) == _bits(column), (budget, name)


def test_loop_log_csv(face_limit, tmp_path):
    log = simulate_loop(face_limit, MASS, lambda t: 10.0, 1.0, 0.01, PERIOD)
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


def _row_by_row_loop_csv(log: LoopLog) -> bytes:
    """The reference writer: one formatted line per step."""
    lines = ["t,v_nominal,v_commanded,ke,tank_energy,injected_cum\n"]
    for i in range(len(log.t)):
        row = (log.t[i], log.v_nominal[i], log.v_commanded[i], log.ke[i],
               log.tank_energy[i], log.injected_cum[i])
        lines.append(",".join(repr(float(x)) for x in row) + "\n")
    return "".join(lines).encode("utf-8")


def test_loop_log_csv_matches_the_row_by_row_writer(face_limit, tmp_path):
    # a nominal speed over the limit is clamped, and the power cap and
    # the small budget (spent by the end) throttle what the tank grants
    log = simulate_loop(face_limit, MASS,
                        lambda t: 10.0 if t < 0.05 else -0.2, 0.02, 0.1,
                        PERIOD, power_cap=0.5)
    assert np.any(log.v_commanded < log.v_nominal)
    assert np.max(np.diff(log.injected_cum)) == pytest.approx(0.5 * PERIOD)
    assert log.tank_energy[-1] == 0.0
    path = tmp_path / "log.csv"
    log.write_csv(path)
    assert path.read_bytes() == _row_by_row_loop_csv(log)

    # three blocks of rows and one more, and a column that repeats values,
    # with both zeros, the least subnormal and a near-overflow value
    n = 3 * CSV_BLOCK_ROWS + 1
    edge = LoopLog(*(np.resize(getattr(log, f.name), n)
                     for f in dataclasses.fields(LoopLog)))
    edge.ke = np.resize([-0.0, 0.0, 5e-324, 1e308, 0.25, -0.0, 0.25, 0.0,
                         -5e-324, -1e308, 0.1, 0.1], n)
    edge.write_csv(path)
    assert path.read_bytes() == _row_by_row_loop_csv(edge)
    assert b",-0.0," in path.read_bytes()
