"""Admissible speed limits: closed forms, mode dispatch, bracketing bounds."""
import math

import numpy as np
import pytest

from pflsafe.body import ContactMode, load_body_table
from pflsafe.errors import InputError
from pflsafe.limits import compute_limit, v0_max, velocity_bounds
from test_body import table_text


def test_free_limit_hand_value():
    # sqrt(2 * 0.5 J * (3+1)/(3*1)) evaluated by hand
    assert v0_max(0.5, 3.0, 1.0) == pytest.approx(
        1.1547005383792515, rel=1e-12)


def test_clamped_limit_hand_value():
    assert v0_max(0.5, 3.0, math.inf) == pytest.approx(
        0.5773502691896257, rel=1e-12)


def test_clamped_below_free_for_finite_masses(rng):
    for _ in range(200):
        u = float(10.0 ** rng.uniform(-3.0, 1.0))
        m_r = float(rng.uniform(0.5, 100.0))
        m_h = float(rng.uniform(0.5, 100.0))
        assert v0_max(u, m_r, math.inf) <= v0_max(u, m_r, m_h)
        masses = rng.uniform(0.5, 100.0, 50)
        assert np.all(v0_max(u, masses, math.inf) <= v0_max(u, masses, m_h))


def test_array_call_equals_scalar_calls(rng):
    for _ in range(50):
        u = float(10.0 ** rng.uniform(-3.0, 1.0))
        m_h = float(rng.uniform(0.5, 100.0))
        masses = np.append(rng.uniform(0.5, 100.0, 40), math.inf)
        for human in (m_h, math.inf):
            batch = v0_max(u, masses, human)
            single = [v0_max(u, float(m), human) for m in masses]
            assert all(type(v) is float for v in single)
            assert np.array_equal(batch, single)


def test_constrained_direction_limits():
    # m_r = inf: nothing of the robot moves, so a clamped contact admits
    # no speed and a free one only the body part's own mass
    assert v0_max(0.5, math.inf, math.inf) == 0.0
    assert v0_max(0.5, math.inf, 2.0) == math.sqrt(2.0 * 0.5 / 2.0)
    batch = v0_max(0.5, np.array([math.inf, 4.0]), 2.0)
    assert batch[0] == math.sqrt(0.5) and batch[1] > batch[0]


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_array_with_bad_mass_rejected(bad):
    with pytest.raises(InputError, match="m_r"):
        v0_max(0.5, np.array([3.0, bad, 4.0]), math.inf)
    with pytest.raises(InputError, match="m_h"):
        v0_max(0.5, np.array([3.0, 4.0]), bad)


def test_velocity_bounds_bracket_free_limit(rng):
    for _ in range(500):
        u = float(10.0 ** rng.uniform(-3.0, 1.0))
        m_r = float(rng.uniform(0.5, 100.0))
        m_h = float(rng.uniform(0.5, 100.0))
        lower, upper = velocity_bounds(u, m_r, m_h)
        v = v0_max(u, m_r, m_h)
        assert lower <= v <= upper


def test_velocity_bounds_tight_for_equal_masses():
    # equal masses: the upper bound is attained and the lower sits at
    # upper / sqrt(2), the worst spread the bracket can have
    lower, upper = velocity_bounds(0.7, 2.5, 2.5)
    assert v0_max(0.7, 2.5, 2.5) == pytest.approx(upper, rel=1e-12)
    assert lower == pytest.approx(upper / math.sqrt(2.0), rel=1e-12)


def test_compute_limit_face_with_constant_mass(body_table):
    # frozen oracle: m = 5.545724 kg, u = 65^2/(2*75000) J
    limit = compute_limit(body_table, "face", ContactMode.TRANSIENT, 5.545724)
    assert limit.v0_max == pytest.approx(0.15152889714720605, rel=1e-12)
    assert limit.u_s_max == pytest.approx(0.028166666666666666, rel=1e-12)
    assert limit.binding_criterion == "force"

    clamped = compute_limit(body_table, "face",
                            ContactMode.QUASI_STATIC_CLAMPED, 5.545724)
    assert clamped.v0_max == pytest.approx(0.10078678667175696, rel=1e-12)


def test_transient_scales_by_multiplier(body_table):
    for region in ("chest", "face", "hands_fingers"):
        params = body_table[region]
        qs = compute_limit(body_table, region, ContactMode.QUASI_STATIC_FREE,
                           4.0)
        tr = compute_limit(body_table, region, ContactMode.TRANSIENT, 4.0)
        assert tr.v0_max == pytest.approx(
            params.transient_multiplier * qs.v0_max, rel=1e-12)


def test_k0_max_consistent_with_v0_max(body_table):
    limit = compute_limit(body_table, "chest",
                          ContactMode.QUASI_STATIC_CLAMPED, 5.0)
    assert limit.k0_max == pytest.approx(
        0.5 * 5.0 * limit.v0_max ** 2, rel=1e-12)
    # clamped mode: the robot kinetic-energy budget equals the elastic budget
    assert limit.k0_max == pytest.approx(limit.u_s_max, rel=1e-12)


def test_pressure_criterion_binds_small_area(body_table):
    limit = compute_limit(body_table, "chest", ContactMode.TRANSIENT, 5.0,
                          contact_area=0.5)
    assert limit.binding_criterion == "pressure"
    # 0.5 cm^2 * 170 N/cm^2 * 2 = 170 N -> u = 170^2/(2*25000)
    assert limit.u_s_max == pytest.approx(170.0 ** 2 / 50_000.0, rel=1e-12)


def test_clamped_only_region_requires_clamped_mode():
    table = load_body_table(table_text(
        back_shoulders="Back/Shoulders,210,210,35,inf,2\n").encode())
    with pytest.raises(InputError, match="quasi_static_clamped"):
        compute_limit(table, "back_shoulders", ContactMode.TRANSIENT, 5.0)
    limit = compute_limit(table, "back_shoulders",
                          ContactMode.QUASI_STATIC_CLAMPED, 5.0)
    assert limit.v0_max > 0.0


@pytest.mark.parametrize("mass,area", [(0.0, 1.0), (-2.0, 1.0),
                                       (math.inf, 1.0), (5.0, 0.0),
                                       (5.0, -1.0)])
def test_bad_query_rejected(body_table, mass, area):
    bound = "finite" if math.isinf(mass) else "> 0"
    with pytest.raises(InputError, match=("robot_mass" if area > 0
                                          else "contact_area")
                       + " must be " + bound):
        compute_limit(body_table, "face", ContactMode.TRANSIENT, mass, area)


@pytest.mark.parametrize("u,m", [(0.0, 3.0), (-1.0, 3.0), (0.5, 0.0),
                                 (0.5, -3.0), (math.nan, 3.0)])
def test_bad_energy_or_mass_rejected(u, m):
    with pytest.raises(InputError, match=("m_r" if u > 0 else "u_s_max")
                       + " must be " + ("finite" if math.isnan(u) else "> 0")):
        v0_max(u, m, math.inf)


def test_an_overflowing_limit_is_an_error_not_inf(recwarn):
    # u_s_max and m_r are finite, but 2 * u_s_max / m_r is not
    with pytest.raises(InputError, match="give an infinite speed limit"):
        v0_max(1e307, 1e-3, 4.4)
    with pytest.raises(InputError, match=r"m_r = 0\.001 kg"):
        v0_max(1e307, np.array([5.0, 1e-3, math.inf]), math.inf)
    # a Face stiffness of 2.1e-307 N/mm leaves F^2 / 2k finite
    table = load_body_table(table_text(
        face="Face,65,110,2.1e-307,4.4,1\n").encode())
    with pytest.raises(InputError, match=r"^Face transient, robot_mass = "
                                         r"0\.001 kg: v0_max: u_s_max = "):
        compute_limit(table, "face", ContactMode.TRANSIENT, 1e-3)
    # the speed limit is finite, its kinetic energy at 1e300 kg is not
    table = load_body_table(table_text(
        face="Face,65,110,1e-290,4.4,1\n").encode())
    with pytest.raises(InputError, match=r"^Face transient, robot_mass = "
                                         r"1e\+300 kg: k0_max = .* u_s_max"):
        compute_limit(table, "face", ContactMode.TRANSIENT, 1e300)
    assert len(recwarn) == 0


def test_an_overflowing_velocity_bound_is_an_error_not_inf(recwarn):
    # 2 * u_s_max / m_r overflows to inf in float division, without an error
    with pytest.raises(InputError, match=r"^velocity_bounds: u_s_max = 1e\+307 "
                                         r"J and min\(m_r, m_h\) = 0\.001 kg"):
        velocity_bounds(1e307, 4.4, 1e-3)
    assert len(recwarn) == 0
