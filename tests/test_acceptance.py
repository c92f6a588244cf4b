"""End-to-end acceptance checks.

One test per shipped guarantee, numbered a01..a10 so ``pytest -v`` prints
them in order, one pass/fail line each.  Each test also prints a one-line
summary with the measured numbers (visible with ``-s``).

The a07 workspace sweep runs the full reference box twice (result + rerun
for bit-identity) and dominates the suite's runtime; everything else is
seconds.
"""
import math
import time

import numpy as np
import pytest

from conftest import random_joint_configs
from pflsafe.body import ContactMode, effective_force_limit
from pflsafe.collision import (CollisionScenario, peak_contact_state,
                               simulate, total_energy)
from pflsafe.dynamics import (ReflectedMassQuery, iso_effective_mass,
                              mass_matrix, point_jacobian, forward_kinematics,
                              reflected_mass)
from pflsafe.limits import compute_limit, v0_max, velocity_bounds
from pflsafe.safety_filter import simulate_loop, tank_init, tank_step
from pflsafe.sweep import MassSource, SweepConfig, run_sweep

CONSTANT_MASS = 5.545724  # kg, half moving mass of the reference arm

#: expected mean transient speed limits [m/s] over the reference box
#: (10 cm grid, 20 horizontal directions, directional reflected mass)
REFERENCE_MEAN_TRANSIENT = {
    "skull_forehead": 0.283,
    "face": 0.217,
    "neck": 1.615,
    "back_shoulders": 1.770,
    "chest": 1.546,
    "abdomen": 1.735,
    "pelvis": 1.795,
    "upper_arms_elbows": 1.681,
    "lower_arms_wrists": 1.687,
    "hands_fingers": 2.209,
    "thighs_knees": 1.536,
    "lower_legs": 0.828,
}

#: a07's reflected-mass means and constant-mass limits [m/s] per region, in
#: ContactMode order (transient, quasi-static free, quasi-static clamped), as
#: the sweep gave them when pinned.  OpenBLAS kernel sets move them by about
#: 1e-8, so a 1e-6 pin holds on any host; a formula change of 1 % breaks it,
#: where the 15 % reference check above does not.  A change that moves a
#: mean on purpose changes these numbers and names the change.
A07_REFLECTED_MEANS = {
    "skull_forehead": (0.29662544872878166, 0.29662544872878166,
                       0.249609377619157),
    "face": (0.20974586626862413, 0.20974586626862413, 0.17650048356225956),
    "neck": (1.580463455606972, 0.790231727803486, 0.49884937394079887),
    "back_shoulders": (1.7069382809638385, 0.8534691404819192,
                       0.8347346608756315),
    "chest": (1.346451074001197, 0.6732255370005985, 0.6584475801945116),
    "abdomen": (1.672727631073599, 0.8363638155367995, 0.8180048144875481),
    "pelvis": (1.7311513808586816, 0.8655756904293408, 0.8465754602500865),
    "upper_arms_elbows": (1.6314404474907716, 0.8157202237453858,
                          0.6440117725129034),
    "lower_arms_wrists": (1.6427005172431293, 0.8213502586215646,
                          0.5949125923545805),
    "hands_fingers": (2.176905143216441, 1.0884525716082205,
                      0.5430784109607986),
    "thighs_knees": (1.4808991900399742, 0.7404495950199871,
                     0.731645748446505),
    "lower_legs": (0.7988321661430537, 0.3994160830715269,
                   0.39466707930679656),
}

A07_CONSTANT_LIMITS = {
    "skull_forehead": (0.2142942214370166, 0.2142942214370166,
                       0.14253404061920258),
    "face": (0.15152889714720605, 0.15152889714720605, 0.10078678667175696),
    "neck": (1.3507680751377975, 0.6753840375688988, 0.28485715403139805),
    "back_shoulders": (1.0172552776329635, 0.5086276388164818,
                       0.4766571881006615),
    "chest": (0.8024217843007684, 0.4012108921503842, 0.37599226053219126),
    "abdomen": (0.9968673324212309, 0.49843366621061547, 0.46710397088031186),
    "pelvis": (1.031685151243845, 0.5158425756219225, 0.48341862068424596),
    "upper_arms_elbows": (1.2413530204387673, 0.6206765102193836,
                          0.3677490045372152),
    "lower_arms_wrists": (1.3197033432634617, 0.6598516716317309,
                          0.339711978822045),
    "hands_fingers": (1.9850028507299902, 0.9925014253649951,
                      0.3101131897592522),
    "thighs_knees": (0.8659227733612065, 0.43296138668060324,
                     0.41779049257938383),
    "lower_legs": (0.4670992930572548, 0.2335496465286274,
                   0.22536610623181835),
}


def test_a01_reference_collision_peak_state():
    start = time.perf_counter()
    scenario = CollisionScenario(m_r=3.0, m_h=1.0, k=5.0, v0=1.0)
    traj, outcome = simulate(scenario)
    elapsed = time.perf_counter() - start

    assert outcome.v_star == pytest.approx(0.75, rel=1e-3)
    assert 0.60 <= outcome.t_star <= 0.62
    energy = total_energy(scenario, traj)
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    assert drift < 1e-6
    assert elapsed < 1.0
    print(f"[acceptance a01] PASS reference collision: "
          f"v*={outcome.v_star:.6f} m/s (0.75 +/-0.1%), "
          f"t*={outcome.t_star:.4f} s in [0.60, 0.62], "
          f"energy drift {drift:.2e}, {elapsed * 1e3:.0f} ms")


def test_a02_simulation_matches_closed_forms(rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        scenario = CollisionScenario(
            m_r=float(rng.uniform(0.5, 100.0)),
            m_h=float(rng.uniform(0.5, 100.0)),
            k=float(10.0 ** rng.uniform(2.0, 6.0)),
            v0=float(rng.uniform(0.05, 3.0)))
        _, outcome = simulate(scenario)
        peak = peak_contact_state(scenario)
        for got, want in ((outcome.dx_max, peak.dx_max),
                          (outcome.f_peak, peak.f_peak),
                          (outcome.delta_k, peak.delta_k)):
            rel = abs(got - want) / want
            worst = max(worst, rel)
            assert rel < 5e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[acceptance a02] PASS 200 random collisions vs closed forms: "
          f"worst relative error {worst:.2e} (< 0.5%), {elapsed:.1f} s")


def test_a03_simulated_peak_force_hits_the_limit(body_table):
    checked = 0
    worst = 0.0
    for params in body_table:
        for mode in ContactMode:
            clamped = mode is ContactMode.QUASI_STATIC_CLAMPED
            if params.clamped_only and not clamped:
                continue
            limit = compute_limit(body_table, params.region_id, mode,
                                  CONSTANT_MASS)
            scenario = CollisionScenario(
                m_r=CONSTANT_MASS,
                m_h=math.inf if clamped else params.m_h,
                k=params.stiffness, v0=limit.v0_max)
            _, outcome = simulate(scenario)
            f_allowed = effective_force_limit(params, mode)
            rel = abs(outcome.f_peak - f_allowed) / f_allowed
            worst = max(worst, rel)
            assert rel < 5e-3
            checked += 1
    assert checked == 36  # 12 regions x 3 modes in the shipped table
    print(f"[acceptance a03] PASS round trip: simulating each region/mode at "
          f"v0_max reproduces its force limit, worst error {worst:.2e} "
          f"over {checked} cases (< 0.5%)")


def test_a04_limit_ordering_and_bounds(body_table, rng):
    n = 100_000
    u = 10.0 ** rng.uniform(-3.0, 2.0, size=n)
    m_r = 10.0 ** rng.uniform(-1.0, 3.0, size=n)
    m_h = 10.0 ** rng.uniform(-1.0, 3.0, size=n)
    free = v0_max(u, m_r, m_h)
    clamped = v0_max(u, m_r, math.inf)
    lower, upper = velocity_bounds(u, m_r, m_h)
    assert np.all(clamped <= free)
    assert np.all((lower <= free) & (free <= upper))
    for i in range(0, n, 100):  # a scalar call is its batch entry, bit for bit
        assert v0_max(u[i], m_r[i], m_h[i]) == free[i]
        assert v0_max(u[i], m_r[i], math.inf) == clamped[i]
        assert velocity_bounds(u[i], m_r[i], m_h[i]) == (lower[i], upper[i])

    for params in body_table:
        if params.clamped_only:
            continue
        v_transient = compute_limit(body_table, params.region_id,
                                    ContactMode.TRANSIENT,
                                    CONSTANT_MASS).v0_max
        v_qs = compute_limit(body_table, params.region_id,
                             ContactMode.QUASI_STATIC_FREE,
                             CONSTANT_MASS).v0_max
        # doubling the force threshold doubles the speed limit bit-exactly
        assert v_transient == params.transient_multiplier * v_qs
    print(f"[acceptance a04] PASS ordering/bounds on {n} draws: "
          f"clamped <= free, bracket holds; transient = multiplier x "
          f"quasi-static exactly for all regions")


def test_a05_constant_effective_mass(panda):
    mass = iso_effective_mass(panda, payload=0.0)
    assert abs(mass - 5.545) < 1e-3
    assert mass == pytest.approx(5.545724, abs=1e-9)
    print(f"[acceptance a05] PASS constant effective mass: "
          f"{mass:.6f} kg (reference 5.545 kg, |diff| < 1e-3)")


def test_a06_clamped_to_transient_ratio(body_table):
    worst = 0.0
    for params in body_table:
        if params.clamped_only:
            continue
        v_transient = compute_limit(body_table, params.region_id,
                                    ContactMode.TRANSIENT,
                                    CONSTANT_MASS).v0_max
        v_clamped = compute_limit(
            body_table, params.region_id, ContactMode.QUASI_STATIC_CLAMPED,
            CONSTANT_MASS).v0_max
        ratio = v_clamped / v_transient
        expected = (math.sqrt(params.m_h / (CONSTANT_MASS + params.m_h))
                    / params.transient_multiplier)
        worst = max(worst, abs(ratio - expected))
        assert ratio == pytest.approx(expected, abs=1e-12)
        if params.region_id == "chest":
            chest_ratio = ratio
    assert chest_ratio == pytest.approx(27.0 / 57.0, abs=0.03)
    print(f"[acceptance a06] PASS clamped/transient ratio matches "
          f"sqrt(m_h/(m_r+m_h))/multiplier to {worst:.1e}; chest ratio "
          f"{chest_ratio:.4f} within 3 pp of 27/57 = {27 / 57:.4f}")


def test_a07_workspace_sweep_reproduction(panda, body_table):
    config = SweepConfig(grid_spacing=0.10, n_directions=20, n_workers=4)
    start = time.perf_counter()
    result = run_sweep(panda, body_table, config)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    # the reach proof before IK must never change which points are reachable
    assert (result.n_grid, result.n_reachable) == (2890, 1321)

    worst = ("", 0.0)
    for rid, expected in REFERENCE_MEAN_TRANSIENT.items():
        mean = float(np.mean(
            result.samples[(rid, ContactMode.TRANSIENT,
                            MassSource.REFLECTED)]))
        rel = (mean - expected) / expected
        if abs(rel) > abs(worst[1]):
            worst = (rid, rel)
        assert mean == pytest.approx(expected, rel=0.15), rid

    assert len(result.stats) == 3 * len(A07_REFLECTED_MEANS) == 36
    for rid, means in A07_REFLECTED_MEANS.items():
        for mode, mean, limit in zip(ContactMode, means,
                                     A07_CONSTANT_LIMITS[rid]):
            assert result.stats[rid, mode].mean == pytest.approx(
                mean, rel=1e-6), (rid, mode)
            assert result.samples[rid, mode, MassSource.CONSTANT][0] == \
                pytest.approx(limit, rel=1e-6), (rid, mode)

    for rid in REFERENCE_MEAN_TRANSIENT:
        for source in MassSource:
            tr = result.samples[(rid, ContactMode.TRANSIENT, source)]
            free = result.samples[
                (rid, ContactMode.QUASI_STATIC_FREE, source)]
            cl = result.samples[
                (rid, ContactMode.QUASI_STATIC_CLAMPED, source)]
            assert np.all(tr >= free) and np.all(free >= cl)

    rerun = run_sweep(panda, body_table, config)
    for key, samples in result.samples.items():
        assert np.array_equal(samples, rerun.samples[key])
    assert np.array_equal(result.reflected_masses, rerun.reflected_masses)
    print(f"[acceptance a07] PASS workspace sweep: {result.n_reachable} "
          f"reachable points, every region mean within 15% of reference "
          f"(worst {worst[0]} {worst[1]:+.1%}) and within 1e-6 of the pin, "
          f"ordering monotone, rerun "
          f"bit-identical, first run {elapsed:.0f} s (< 10 s)")


def test_a08_face_demo_speed_limits(body_table):
    peaks = {}
    for mode, target in ((ContactMode.TRANSIENT, 0.15),
                         (ContactMode.QUASI_STATIC_CLAMPED, 0.10)):
        limit = compute_limit(body_table, "face", mode, CONSTANT_MASS)
        log = simulate_loop(limit, CONSTANT_MASS, lambda t: 2.0 * limit.v0_max,
                            1.0, duration=1.0, period=1e-3)
        peak = float(np.max(np.abs(log.velocity)))
        assert peak == pytest.approx(target, rel=0.05)
        peaks[mode.value] = peak
    print(f"[acceptance a08] PASS face demo with constant mass: loop peaks "
          f"{peaks['transient']:.4f} m/s (0.15 +/-5%) and "
          f"{peaks['quasi_static_clamped']:.4f} m/s (0.10 +/-5%)")


def test_a09_tank_ledger_and_counterexample(body_table, rng):
    for _ in range(1000):
        budget = float(rng.uniform(0.0, 10.0))
        tank = tank_init(budget)
        injected = 0.0
        for _ in range(60):
            power = float(rng.normal(scale=40.0))
            dt = float(rng.uniform(1e-4, 5e-2))
            held = tank.energy
            _, tank = tank_step(tank, power, dt)
            assert tank.energy >= 0.0
            # the ledger keeps every grant: a running sum, capped at the budget
            if power > 0.0:
                injected = min(injected + min(power * dt, held), budget)
            assert tank.cumulative_injected == injected
            assert tank.cumulative_injected <= budget

    limit = compute_limit(body_table, "face", ContactMode.TRANSIENT,
                          CONSTANT_MASS)
    budget = 1e6
    log = simulate_loop(limit, CONSTANT_MASS, lambda t: 5.0, budget,
                        duration=1.0, period=1e-3, velocity_filter=False)
    over = float(np.max(np.abs(log.velocity)))
    assert over > limit.v0_max
    assert np.all(log.tank_energy >= 0.0)
    assert np.all(log.injected_cum <= budget)
    print(f"[acceptance a09] PASS tank ledger on 1000 random sequences "
          f"(energy >= 0, injected <= budget exactly); counterexample: "
          f"|v| reaches {over:.2f} m/s >> limit {limit.v0_max:.3f} m/s "
          f"while every tank invariant holds")


def test_a10_dynamics_kernels(panda, rng):
    qs = random_joint_configs(panda, rng, 1000)
    min_eig = math.inf
    worst_sym = 0.0
    for q in qs:
        m = mass_matrix(panda, q)
        worst_sym = max(worst_sym, float(np.max(np.abs(m - m.T))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(m)[0]))
    assert worst_sym < 1e-12
    assert min_eig > 0.0

    worst_fd = 0.0
    h = 1e-6
    for q in qs[:50]:
        jac = point_jacobian(panda, q)
        for j in range(panda.n):
            dq = np.zeros(panda.n)
            dq[j] = h
            forward = forward_kinematics(panda, q + dq)[:3, 3]
            backward = forward_kinematics(panda, q - dq)[:3, 3]
            fd = (forward - backward) / (2.0 * h)
            worst_fd = max(worst_fd, float(np.max(np.abs(jac[:, j] - fd))))
    assert worst_fd < 1e-6

    worst_ke = 0.0
    for q in qs[:100]:
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        m_u = reflected_mass(panda, ReflectedMassQuery(q=q, u=u))
        # minimum kinetic energy over joint velocities with unit tip speed
        # along u is m_u / 2, attained by the dynamically consistent pullback
        m = mass_matrix(panda, q)
        ju = point_jacobian(panda, q).T @ u
        qdot = np.linalg.solve(m, ju)
        qdot /= float(u @ point_jacobian(panda, q) @ qdot)
        ke = 0.5 * float(qdot @ m @ qdot)
        worst_ke = max(worst_ke, abs(ke - 0.5 * m_u) / (0.5 * m_u))
    assert worst_ke < 1e-8
    print(f"[acceptance a10] PASS dynamics kernels: mass matrix symmetric "
          f"(max asym {worst_sym:.1e}) and positive definite (min eig "
          f"{min_eig:.3f} kg m^2) on 1000 configurations; Jacobian vs "
          f"finite differences {worst_fd:.1e} (< 1e-6); reflected mass vs "
          f"kinetic-energy oracle {worst_ke:.1e} (< 1e-8 relative)")
