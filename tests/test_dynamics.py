"""Rigid-body kernels: FK, Jacobians, mass matrix, reflected mass, IK.

Oracles used here are deliberately independent routes:
  * a textbook closed-form model of a planar 2R arm (mass matrix, FK),
  * a from-scratch homogeneous-transform chain built straight from the YAML,
  * finite differences for Jacobians,
  * the constrained kinetic-energy minimum for reflected mass
    (the optimum of min 1/2 qd' M qd s.t. u' J qd = 1 equals m_u / 2).
"""
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
import yaml

from pflsafe import dynamics, robot_model_path
from pflsafe.dynamics import (FLANGE_DOWN, ReflectedMassQuery,
                              forward_kinematics, frame_jacobian,
                              inverse_kinematics, iso_effective_mass,
                              link_frames, load_robot_model,
                              manipulability, mass_matrix, point_jacobian,
                              reflected_mass, rpy_matrix)
from pflsafe.errors import InputError
from pflsafe.schema import LOADER_CACHE_SIZE
from pflsafe.sweep import horizontal_directions, sphere_directions
from conftest import random_joint_configs
import ik_reference

# planar 2R arm: both joints about +z, links along +x; COMs at distance
# l1, l2 along the links, rotational inertia i1, i2 about z.  The default
# arm has point masses at the link tips (com at the next joint / tool
# point, zero rotational inertia); the second has uniform rods.
A1, A2 = 0.7, 0.5
M1, M2 = 2.0, 1.5
TIP_MASSES = dict(l1=A1, l2=A2, i1=0.0, i2=0.0)
MID_LINK_RODS = dict(l1=A1 / 2, l2=A2 / 2, i1=M1 * A1 ** 2 / 12,
                     i2=M2 * A2 ** 2 / 12)


def two_r_yaml(l1, l2, i1, i2):
    return f"""
name: planar-2r
end_effector:
  xyz: [{A2}, 0.0, 0.0]
  rpy: [0.0, 0.0, 0.0]
links:
  - name: upper
    joint:
      xyz: [0.0, 0.0, 0.0]
      rpy: [0.0, 0.0, 0.0]
      axis: [0.0, 0.0, 1.0]
      lower: -3.14
      upper: 3.14
    mass: {M1}
    com: [{l1}, 0.0, 0.0]
    inertia: {{ixx: 0.0, iyy: 0.0, izz: {i1}}}
  - name: lower
    joint:
      xyz: [{A1}, 0.0, 0.0]
      rpy: [0.0, 0.0, 0.0]
      axis: [0.0, 0.0, 1.0]
      lower: -3.14
      upper: 3.14
    mass: {M2}
    com: [{l2}, 0.0, 0.0]
    inertia: {{ixx: 0.0, iyy: 0.0, izz: {i2}}}
"""


TWO_R_YAML = two_r_yaml(**TIP_MASSES)

PENDULUM_YAML = """
name: pendulum
end_effector: {xyz: [0.8, 0.0, 0.0], rpy: [0.0, 0.0, 0.0]}
links:
  - name: rod
    joint:
      xyz: [0.0, 0.0, 0.0]
      rpy: [0.0, 0.0, 0.0]
      axis: [0.0, 0.0, 1.0]
      lower: -3.14
      upper: 3.14
    mass: 2.5
    com: [0.8, 0.0, 0.0]
    inertia: {ixx: 0.0, iyy: 0.0, izz: 0.0}
"""

SLIDER_YAML = """
name: slider
end_effector: {xyz: [0.0, 0.0, 0.0], rpy: [0.0, 0.0, 0.0]}
links:
  - name: cart
    joint:
      type: prismatic
      xyz: [0.0, 0.0, 0.0]
      rpy: [0.0, 0.0, 0.0]
      axis: [1.0, 0.0, 0.0]
      lower: -1.0
      upper: 1.0
    mass: 3.2
    com: [0.0, 0.0, 0.0]
    inertia: {ixx: 0.0, iyy: 0.0, izz: 0.0}
"""


@pytest.fixture(scope="module")
def two_r():
    return load_robot_model(yaml_stream(TWO_R_YAML))


def yaml_stream(text):
    import io
    return io.StringIO(text)


def two_r_mass_matrix(q, l1=A1, l2=A2, i1=0.0, i2=0.0):
    """Textbook closed form for the planar 2R arm."""
    c2 = math.cos(q[1])
    m11 = i1 + i2 + M1 * l1 ** 2 + M2 * (A1 ** 2 + l2 ** 2 + 2 * A1 * l2 * c2)
    m12 = i2 + M2 * (l2 ** 2 + A1 * l2 * c2)
    m22 = i2 + M2 * l2 ** 2
    return np.array([[m11, m12], [m12, m22]])


# ------------------------------------------------- independent FK oracle

def _rpy_oracle(r, p, y):
    cr, sr, cp, sp, cy, sy = (math.cos(r), math.sin(r), math.cos(p),
                              math.sin(p), math.cos(y), math.sin(y))
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


def _pose_oracle(xyz, rpy):
    t = np.eye(4)
    t[:3, :3] = _rpy_oracle(*rpy)
    t[:3, 3] = xyz
    return t


def fk_from_yaml(path, q):
    """World poses of the last link frame and of the tool frame for a
    (B, n) stack of joint vectors, from the raw YAML numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    t = np.broadcast_to(np.eye(4), (len(q), 4, 4))
    for spec, qi in zip(raw["links"], q.T):
        joint = spec["joint"]
        axis = np.asarray(joint.get("axis", [0, 0, 1]), dtype=float)
        axis /= np.linalg.norm(axis)
        move = np.broadcast_to(np.eye(4), (len(q), 4, 4)).copy()
        if joint.get("type", "revolute") == "revolute":
            kx = np.array([[0, -axis[2], axis[1]],
                           [axis[2], 0, -axis[0]],
                           [-axis[1], axis[0], 0]])
            move[:, :3, :3] += (np.sin(qi)[:, None, None] * kx
                                + (1 - np.cos(qi))[:, None, None] * kx @ kx)
        else:
            move[:, :3, 3] = qi[:, None] * axis
        t = t @ _pose_oracle(joint.get("xyz", [0, 0, 0]),
                             joint.get("rpy", [0, 0, 0])) @ move
    ee = raw.get("end_effector", {})
    return t, t @ _pose_oracle(ee.get("xyz", [0, 0, 0]),
                               ee.get("rpy", [0, 0, 0]))


# ------------------------------------------------------------------ tests

def test_two_r_forward_kinematics(two_r):
    q = np.array([0.3, -0.7])
    t = forward_kinematics(two_r, q)
    x = A1 * math.cos(0.3) + A2 * math.cos(0.3 - 0.7)
    y = A1 * math.sin(0.3) + A2 * math.sin(0.3 - 0.7)
    assert t[:3, 3] == pytest.approx([x, y, 0.0], abs=1e-12)


def test_two_r_mass_matrix_closed_form(rng):
    # the rods' rotational inertia checks the J_w^T (R I R^T) J_w term
    # against a formula that does not share the code's
    for arm in (TIP_MASSES, MID_LINK_RODS):
        model = load_robot_model(yaml_stream(two_r_yaml(**arm)))
        for _ in range(25):
            q = rng.uniform(-3.0, 3.0, 2)
            assert mass_matrix(model, q) == pytest.approx(
                two_r_mass_matrix(q, **arm), rel=1e-9, abs=1e-12)


def test_two_r_reflected_mass_stretched(two_r):
    # arm stretched along +x: lateral push engages both point masses
    q = np.zeros(2)
    m_y = reflected_mass(
        two_r, ReflectedMassQuery(q=q, u=np.array([0.0, 1.0, 0.0])))
    j = np.array([A1 + A2, A2])  # dy/dq for the stretched arm, by hand
    want = 1.0 / (j @ np.linalg.solve(two_r_mass_matrix(q), j))
    assert m_y == pytest.approx(want, rel=1e-12)
    # radial and out-of-plane pushes are structurally constrained
    for u in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]):
        assert reflected_mass(
            two_r, ReflectedMassQuery(q=q, u=np.array(u))) == math.inf


def test_pendulum_reflected_mass_is_point_mass():
    # point mass on a massless rod: tangential reflected mass at the mass
    # location is the mass itself
    model = load_robot_model(yaml_stream(PENDULUM_YAML))
    m = reflected_mass(model, ReflectedMassQuery(
        q=np.zeros(1), u=np.array([0.0, 1.0, 0.0])))
    assert m == pytest.approx(2.5, rel=1e-9)


def test_slider_reflected_mass_is_carried_mass():
    model = load_robot_model(yaml_stream(SLIDER_YAML))
    m = reflected_mass(model, ReflectedMassQuery(
        q=np.zeros(1), u=np.array([1.0, 0.0, 0.0])))
    assert m == pytest.approx(3.2, rel=1e-12)
    assert reflected_mass(model, ReflectedMassQuery(
        q=np.zeros(1), u=np.array([0.0, 1.0, 0.0]))) == math.inf


def test_panda_fk_matches_chain_oracle(panda, rng):
    qs = random_joint_configs(panda, rng, 20)
    for q, tool in zip(qs, fk_from_yaml(robot_model_path(), qs)[1]):
        assert forward_kinematics(panda, q) == pytest.approx(tool, abs=1e-10)


def test_point_jacobian_matches_finite_differences(panda, rng):
    h = 1e-6

    def tool(q):
        return forward_kinematics(panda, q)[:3, 3]

    def on_link(index, local):
        # contact point fixed in link ``index``'s frame, and its Jacobian
        def position(q):
            return (link_frames(panda, q)[index] @ np.append(local, 1.0))[:3]

        def jacobian(q):
            return dynamics._jacobians(panda, link_frames(panda, q),
                                       position(q)[None], [index])[0, :3]
        return jacobian, position

    contacts = [(lambda q: point_jacobian(panda, q), tool),
                on_link(6, np.zeros(3)),
                on_link(3, np.zeros(3)),
                on_link(4, np.array([0.05, -0.02, 0.1]))]
    for q in random_joint_configs(panda, rng, 10):
        for jacobian, position in contacts:
            jac = jacobian(q)
            fd = np.empty_like(jac)
            for j in range(panda.n):
                dq = np.zeros(panda.n)
                dq[j] = h
                fd[:, j] = (position(q + dq) - position(q - dq)) / (2 * h)
            assert np.max(np.abs(jac - fd)) < 1e-6


def test_jacobian_rounds_like_np_cross(panda, rng):
    # the kernel writes the cross product out by component; every column
    # must still equal the np.cross form bit for bit
    local = np.array([0.05, -0.02, 0.1])
    for q in random_joint_configs(panda, rng, 50):
        frames = link_frames(panda, q)
        rot, origin = frames[4][:3, :3], frames[4][:3, 3]
        want = link_frame_jacobian_oracle(
            panda, frames, 6, forward_kinematics(panda, q)[:3, 3])
        assert np.array_equal(point_jacobian(panda, q), want[:3])
        for index, point in ((3, frames[3][:3, 3]), (4, rot @ local + origin)):
            want = link_frame_jacobian_oracle(panda, frames, index, point)
            jac = dynamics._jacobians(panda, frames, point[None], [index])
            assert np.array_equal(jac[0, :3], want[:3])


def test_stacked_kinematics_equal_one_configuration_at_a_time(panda, rng):
    # each configuration of a (B, n) stack rounds as it does alone, and
    # alone as the per-link chain product of the scalar loop
    qs = random_joint_configs(panda, rng, 50)
    directions = sphere_directions(40)
    frames = link_frames(panda, qs)
    jacobians = frame_jacobian(panda, qs)
    masses = mass_matrix(panda, qs)
    reflected = reflected_mass(panda, ReflectedMassQuery(q=qs, u=directions))
    dexterity = manipulability(panda, qs)
    assert frames.shape == (50, panda.n, 4, 4)
    assert (reflected.shape, dexterity.shape) == ((50, 40), (50,))
    for b, q in enumerate(qs):
        assert np.array_equal(frames[b], link_frames(panda, q))
        assert np.array_equal(frames[b],
                              np.array(ik_reference.link_frames(panda, q)))
        assert np.array_equal(jacobians[b], frame_jacobian(panda, q))
        assert np.array_equal(masses[b], mass_matrix(panda, q))
        assert np.array_equal(reflected[b], reflected_mass(
            panda, ReflectedMassQuery(q=q, u=directions)))
        assert np.array_equal(dexterity[b], manipulability(panda, q))


def test_reflected_mass_walks_the_chain_once(panda, monkeypatch):
    # J and M come from the same link frames: one link_frames pass, built
    # on one stack of joint transforms, per call, whatever the number of
    # directions
    calls = {"link_frames": 0, "_joint_transforms": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        original = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, counting(name, original))
    q = np.array([0.0, -0.3, 0.0, -1.8, 0.0, 1.6, 0.8])
    reflected_mass(panda, ReflectedMassQuery(q=q, u=sphere_directions(20)))
    assert calls == {"link_frames": 1, "_joint_transforms": 1}


def test_frame_jacobian_angular_rows(panda, rng):
    # d/dt R = [omega]x R: recover omega by finite differences per joint
    h = 1e-6
    for q in random_joint_configs(panda, rng, 5):
        jac = frame_jacobian(panda, q)
        rot = forward_kinematics(panda, q)[:3, :3]
        for j in range(panda.n):
            dq = np.zeros(panda.n)
            dq[j] = h
            rot_p = forward_kinematics(panda, q + dq)[:3, :3]
            rot_m = forward_kinematics(panda, q - dq)[:3, :3]
            skew = (rot_p - rot_m) / (2 * h) @ rot.T
            omega_fd = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
            assert np.max(np.abs(jac[3:, j] - omega_fd)) < 1e-5


def test_mass_matrix_symmetric_positive_definite(panda, rng):
    for q in random_joint_configs(panda, rng, 50):
        m = mass_matrix(panda, q)
        assert np.allclose(m, m.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(m)) > 0.0


def link_frame_jacobian_oracle(model, frames, index, point=None):
    """6xN Jacobian (linear; angular) of a world point moving with link
    ``index``, by default that link's frame origin."""
    origin = frames[index][:3, 3] if point is None else point
    jac = np.zeros((6, model.n))
    for j in range(index + 1):
        rot = frames[j][:3, :3]
        axis = rot @ model.axes[j]
        if j not in model.prismatic:
            jac[:3, j] = np.cross(axis, origin - frames[j][:3, 3])
            jac[3:, j] = axis
        else:
            jac[:3, j] = axis
    return jac


def test_mass_matrix_kinetic_energy_oracle(panda, rng):
    # KE from the joint-space inertia equals the sum of per-link rigid-body
    # energies computed link by link in world coordinates
    for q in random_joint_configs(panda, rng, 10):
        qd = rng.uniform(-1.0, 1.0, panda.n)
        ke_matrix = 0.5 * qd @ mass_matrix(panda, q) @ qd
        frames = link_frames(panda, q)
        ke_links = 0.0
        for i in range(panda.n):
            twist = link_frame_jacobian_oracle(panda, frames, i) @ qd
            v_origin, omega = twist[:3], twist[3:]
            rot = frames[i][:3, :3]
            v_com = v_origin + np.cross(omega, rot @ panda.coms[i])
            inertia_world = rot @ panda.inertias[i] @ rot.T
            ke_links += 0.5 * panda.masses[i] * (v_com @ v_com)
            ke_links += 0.5 * omega @ inertia_world @ omega
        assert ke_matrix == pytest.approx(ke_links, rel=1e-10)


def test_reflected_mass_kinetic_energy_oracle(panda, rng):
    for q in random_joint_configs(panda, rng, 10):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        m_u = reflected_mass(panda, ReflectedMassQuery(q=q, u=u))
        # KKT solution of min 1/2 qd' M qd  s.t.  u' J qd = 1
        m = mass_matrix(panda, q)
        a = point_jacobian(panda, q).T @ u
        qd = np.linalg.solve(m, a)
        qd /= a @ qd
        assert m_u == pytest.approx(qd @ m @ qd, rel=1e-8)


def test_stacked_reflected_mass_equals_single_calls(panda, rng):
    # one Lambda^-1 for the whole stack, same arithmetic per direction
    directions = sphere_directions(40)
    for q in random_joint_configs(panda, rng, 200):
        stacked = reflected_mass(panda, ReflectedMassQuery(q=q, u=directions))
        single = [reflected_mass(panda, ReflectedMassQuery(q=q, u=u))
                  for u in directions]
        assert stacked.shape == (40,)
        assert np.array_equal(stacked, single)


def test_reflected_mass_within_belted_ellipsoid(panda, rng):
    # m_u = 1 / (u' Lambda^-1 u) lies between the inverse extreme
    # eigenvalues of Lambda^-1 (Khatib's belted ellipsoid)
    directions = np.vstack([sphere_directions(40), horizontal_directions(20)])
    for q in random_joint_configs(panda, rng, 50):
        jac = point_jacobian(panda, q)
        lam_inv = jac @ np.linalg.solve(mass_matrix(panda, q), jac.T)
        eig = np.linalg.eigvalsh(lam_inv)
        m_u = reflected_mass(panda, ReflectedMassQuery(q=q, u=directions))
        assert np.all(m_u >= (1.0 / eig[-1]) * (1 - 1e-9))
        assert np.all(m_u <= (1.0 / eig[0]) * (1 + 1e-9))


def test_two_r_stack_marks_constrained_direction_inf(two_r):
    q = np.array([0.3, -0.7])
    diagonal = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    stack = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                      diagonal])
    masses = reflected_mass(two_r, ReflectedMassQuery(q=q, u=stack))
    assert masses[2] == math.inf
    assert np.all(np.isfinite(masses[[0, 1, 3]]))
    assert masses[1] == reflected_mass(
        two_r, ReflectedMassQuery(q=q, u=stack[1]))
    assert reflected_mass(
        two_r, ReflectedMassQuery(q=q, u=stack[2])) == math.inf


def test_reflected_mass_unit_vector_enforced(panda):
    q = np.zeros(panda.n)
    with pytest.raises(InputError, match="unit"):
        ReflectedMassQuery(q=q, u=np.array([1.0, 1.0, 0.0]))
    with pytest.raises(InputError, match=r"3-vector .* got shape \(2,\)"):
        ReflectedMassQuery(q=q, u=np.array([1.0, 0.0]))
    # every row of a stack is checked
    with pytest.raises(InputError, match="unit"):
        ReflectedMassQuery(q=q, u=np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
    with pytest.raises(InputError, match=r"non-empty .* got shape \(0, 3\)"):
        ReflectedMassQuery(q=q, u=np.zeros((0, 3)))


def test_singular_mass_matrix_is_a_domain_error():
    # a massless last link without inertia leaves joint 7 with no inertia:
    # M has a zero row and column, and Lambda^-1 = J M^-1 J^T does not exist
    with open(robot_model_path(), "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    last = raw["links"][-1]
    last.update(mass=0.0, inertia=dict.fromkeys(last["inertia"], 0.0))
    model = load_robot_model(yaml_stream(yaml.safe_dump(raw)))
    query = ReflectedMassQuery(q=np.array([0.0, -0.3, 0.0, -1.8, 0.0, 1.6, 0.8]),
                               u=horizontal_directions(4))
    with pytest.raises(InputError, match="mass matrix is singular at q"):
        reflected_mass(model, query)


def test_a_singular_mass_matrix_in_a_stack_is_named():
    # the boom slides through the turntable's axis: at q2 = 0 both links'
    # masses sit on it, so nothing resists joint 1 and M is singular there
    model = load_robot_model(yaml_stream(
        ARM_SLIDE_YAML.replace("xyz: [0.5, 0.0, 0.0]", "xyz: [0.0, 0.0, 0.0]")
        .replace("lower: 0.0", "lower: -0.3")))
    qs = np.array([[0.1, 0.2], [0.4, 0.0], [0.0, 0.0], [0.3, -0.1]])
    u = horizontal_directions(4)
    masses = reflected_mass(model, ReflectedMassQuery(q=qs[[0, 3]], u=u))
    assert masses.shape == (2, 4) and np.all(masses > 0)
    with pytest.raises(InputError, match=r"^mass matrix is singular at q = "
                                         r"\[0\.4, 0\.0\]$"):
        reflected_mass(model, ReflectedMassQuery(q=qs, u=u))


def test_iso_effective_mass_reference_value(panda):
    # half the moving-link mass; the identified link set sums to 11.091448 kg
    assert abs(iso_effective_mass(panda) - 5.545) < 1e-3
    assert iso_effective_mass(panda) == pytest.approx(5.545724, abs=1e-9)
    assert iso_effective_mass(panda, payload=2.0) == pytest.approx(
        7.545724, abs=1e-9)
    with pytest.raises(InputError, match="iso_effective_mass: payload must be >= 0"):
        iso_effective_mass(panda, payload=-1.0)


def test_base_link_excluded_from_moving_mass(panda):
    # the first link spins about the vertical axis without translating
    assert not panda.moving[0]
    moving = sum(mass for mass, moves in zip(panda.masses, panda.moving)
                 if moves)
    assert moving == pytest.approx(11.091448, abs=1e-9)


def test_manipulability_positive_away_from_singularity(panda):
    q = np.array([0.0, -0.3, 0.0, -1.8, 0.0, 1.6, 0.8])
    assert manipulability(panda, q) > 1e-3


def test_ik_round_trip(panda, rng):
    for q_true in random_joint_configs(panda, rng, 8):
        target = forward_kinematics(panda, q_true)[:3, 3]
        result = inverse_kinematics(panda, target, q_true)
        assert result.success
        assert result.iterations <= 2  # converged seed: immediate success
        assert result.position_error < 1e-4


def test_ik_with_orientation(panda):
    seed = 0.5 * (panda.lower_limits + panda.upper_limits)
    result = inverse_kinematics(panda, np.array([0.4, 0.2, 0.5]), seed,
                                orientation=FLANGE_DOWN)
    assert result.success
    t = forward_kinematics(panda, result.q)
    assert np.linalg.norm(t[:3, 3] - [0.4, 0.2, 0.5]) < 1e-4
    assert np.max(np.abs(t[:3, :3] - FLANGE_DOWN)) < 5e-3


def test_ik_unreachable_fails_cleanly(panda):
    seed = 0.5 * (panda.lower_limits + panda.upper_limits)
    for orientation in (None, FLANGE_DOWN):
        result = inverse_kinematics(panda, np.array([1.5, 0.0, 0.5]), seed,
                                    orientation=orientation)
        assert not result.success
        assert result.iterations == 0  # outside the reach ball: no iteration
        assert np.array_equal(result.q, seed)
        assert result.position_error > 0.1


def test_ik_inside_the_reach_ball_still_spends_its_budget(panda):
    # straight below the shoulder: inside the ball, yet no flange-down pose
    seed = 0.5 * (panda.lower_limits + panda.upper_limits)
    result = inverse_kinematics(panda, np.array([0.0, 0.0, 0.15]), seed,
                                orientation=FLANGE_DOWN)
    assert not result.success
    assert result.iterations == 200
    assert result.position_error == pytest.approx(0.25, abs=0.01)


def test_ik_builds_a_jacobian_only_where_it_steps(panda, monkeypatch):
    lanes_per_call = []
    jacobians = dynamics._jacobians

    def counting(model, frames, points, links):
        lanes_per_call.append(len(frames))
        return jacobians(model, frames, points, links)

    monkeypatch.setattr(dynamics, "_jacobians", counting)
    # a target outside the reach ball builds none, and reports the errors
    # of the seed clipped to the joint limits
    target = np.array([1.5, 0.0, 0.5])
    seed = panda.upper_limits + 1.0
    clipped = np.minimum(seed, panda.upper_limits)
    pose = forward_kinematics(panda, clipped)
    for orientation in (None, FLANGE_DOWN):
        result = inverse_kinematics(panda, target, seed,
                                    orientation=orientation)
        assert lanes_per_call == []
        assert (result.success, result.iterations) == (False, 0)
        assert np.array_equal(result.q, clipped)
        assert result.position_error == np.linalg.norm(target - pose[:3, 3])
        assert result.orientation_error == (0.0 if orientation is None else
                                            np.linalg.norm(
            dynamics._rotation_errors(orientation, pose[None, :3, :3])[0]))
    # a converging, a budget-spending and a rejected lane: one Jacobian of
    # the running lanes per iteration, none for the evaluation that ends
    # a lane
    targets = np.array([[0.4, 0.2, 0.5], [0.0, 0.0, 0.15], target])
    seeds = np.tile(0.5 * (panda.lower_limits + panda.upper_limits), (3, 1))
    result = inverse_kinematics(panda, targets, seeds,
                                orientation=FLANGE_DOWN)
    assert result.success.tolist() == [True, False, False]
    assert result.iterations[1:].tolist() == [200, 0]
    assert len(lanes_per_call) == 200
    assert sum(lanes_per_call) == sum(result.iterations.tolist())


def test_the_wrist_circle_rejects_a_target_inside_the_ball(panda,
                                                          monkeypatch):
    # flange down above the shoulder: the last link's origin lies 0.731 m
    # from the shoulder, inside the 0.807 m ball, but every point of the
    # wrist's 0.088 m circle lies over 0.724 m away, past the wrist's 0.719 m
    target = np.array([0.0, 0.1, 0.95])
    seed = 0.5 * (panda.lower_limits + panda.upper_limits)
    centre, radius, _ = panda.reach
    assert math.dist(target + [0.0, 0.0, 0.107], centre) < radius - 0.07
    result = inverse_kinematics(panda, target, seed, orientation=FLANGE_DOWN)
    assert not result.success and result.iterations == 0
    monkeypatch.setattr(dynamics, "_outside_reach", lambda *args: False)
    result = inverse_kinematics(panda, target, seed, orientation=FLANGE_DOWN)
    assert not result.success and result.iterations == 200


def test_reach_balls_hold_every_fk_pose(panda, rng):
    with open(robot_model_path(), "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    offsets = [np.asarray(spec["joint"]["xyz"]) for spec in raw["links"]]
    ee_xyz = np.asarray(raw["end_effector"]["xyz"])
    centre, radius = dynamics._chain_reach(panda)
    assert np.array_equal(centre, offsets[0])
    # pivots s -> p4 -> p5 -> p7, and s -> p4 crosses two perpendicular offsets
    assert radius == pytest.approx(math.hypot(*offsets[2], *offsets[3])
                                   + sum(np.linalg.norm(offsets[k])
                                         for k in (4, 6)), rel=1e-12)

    q = random_joint_configs(panda, rng, 100_000)
    last, tool = fk_from_yaml(robot_model_path(), q)
    # the last link's origin recovered from the tool pose, as IK does
    p_n = tool[:, :3, 3] - tool[:, :3, :3] @ ee_xyz
    np.testing.assert_allclose(p_n, last[:, :3, 3], atol=1e-12)
    flange = np.linalg.norm(p_n - centre, axis=1)
    reach = np.linalg.norm(tool[:, :3, 3] - centre, axis=1)
    assert flange.max() <= radius
    assert reach.max() <= radius + np.linalg.norm(ee_xyz)
    assert flange.max() > 0.9 * radius  # the ball is not loose
    # the helper itself, with zero tolerances, on a slice of the poses
    for pose in tool[:2000]:
        assert not dynamics._outside_reach(panda, pose[:3, 3], None, 0.0, 0.0)
        assert not dynamics._outside_reach(panda, pose[:3, 3], pose[:3, :3],
                                           0.0, 0.0)


# a turntable carrying a boom that slides out 0 .. 0.3 m: the tool reaches
# 0.5 + 0.3 + 0.1 m from the turntable's origin and no farther
ARM_SLIDE_YAML = """
name: arm-slide
end_effector: {xyz: [0.1, 0.0, 0.0], rpy: [0.0, 0.0, 0.0]}
links:
  - name: turntable
    joint: {xyz: [0.0, 0.0, 0.2], axis: [0.0, 0.0, 1.0],
            lower: -3.14, upper: 3.14}
    mass: 1.0
    com: [0.0, 0.0, 0.0]
    inertia: {ixx: 0.0, iyy: 0.0, izz: 0.0}
  - name: boom
    joint: {type: prismatic, xyz: [0.5, 0.0, 0.0], axis: [1.0, 0.0, 0.0],
            lower: 0.0, upper: 0.3}
    mass: 1.0
    com: [0.0, 0.0, 0.0]
    inertia: {ixx: 0.0, iyy: 0.0, izz: 0.0}
"""


# the 2R arm with its elbow raised and tilted: the wrist circle's centre
# leaves the last link's origin, and its plane tilts
TILTED_2R_YAML = TWO_R_YAML.replace(
    "xyz: [0.7, 0.0, 0.0]\n      rpy: [0.0, 0.0, 0.0]",
    "xyz: [0.7, 0.0, 0.2]\n      rpy: [0.4, 0.3, 0.0]")


@pytest.mark.parametrize("arm", ["panda", "2r", "2r-tilted", "arm-slide"])
def test_the_wrist_circle_holds_every_fk_pose(arm, rng, tmp_path):
    # the wrist, link n-1's origin, from the raw YAML of the chain without
    # its last link
    path = {"panda": robot_model_path()}.get(arm, tmp_path / "arm.yaml")
    if arm != "panda":
        path.write_text({"2r": TWO_R_YAML, "2r-tilted": TILTED_2R_YAML,
                         "arm-slide": ARM_SLIDE_YAML}[arm])
    model = load_robot_model(path)
    raw = yaml.safe_load(path.read_text())
    raw["links"].pop()
    (tmp_path / "wrist.yaml").write_text(yaml.safe_dump(raw))
    q = random_joint_configs(model, rng, 100_000)
    wrist = fk_from_yaml(tmp_path / "wrist.yaml", q[:, :-1])[0][:, :3, 3]
    centre, _, wrist_radius = model.reach
    distance = np.linalg.norm(wrist - centre, axis=1)
    assert distance.max() <= wrist_radius
    if arm == "panda":
        # s -> p4 -> p5, and the bound is reached inside q4's limits
        assert wrist_radius == pytest.approx(0.71935, abs=1e-5)
        assert distance.max() > 0.999 * wrist_radius
    # the proof itself, with zero tolerances, on the poses nearest its
    # bounds: the wrist's and the last link origin's
    last, tool = fk_from_yaml(path, q)
    near = np.union1d(np.argsort(distance)[-1000:], np.argsort(
        np.linalg.norm(last[:, :3, 3] - centre, axis=1))[-1000:])
    for pose in tool[near]:
        assert not dynamics._outside_reach(model, pose[:3, 3], None, 0.0, 0.0)
        assert not dynamics._outside_reach(model, pose[:3, 3], pose[:3, :3],
                                           0.0, 0.0)


def test_prismatic_travel_widens_the_reach_ball():
    model = load_robot_model(yaml_stream(ARM_SLIDE_YAML))
    centre, radius = dynamics._chain_reach(model)
    assert np.array_equal(centre, [0.0, 0.0, 0.2])
    assert radius == pytest.approx(0.8, abs=1e-15)
    seed = np.zeros(2)
    # the boom at full travel stops 5e-5 m short: within pos_tol
    edge = inverse_kinematics(model, np.array([0.0, 0.9 + 5e-5, 0.2]), seed)
    assert edge.success and edge.q[1] == 0.3
    beyond = inverse_kinematics(model, np.array([0.0, 0.9 + 2e-4, 0.2]), seed)
    assert not beyond.success and beyond.iterations == 0


def test_infinite_travel_turns_the_reach_ball_off():
    model = load_robot_model(yaml_stream(
        ARM_SLIDE_YAML.replace("upper: 0.3", "upper: .inf")))
    assert dynamics._chain_reach(model)[1] == math.inf
    far = inverse_kinematics(model, np.array([0.0, 5.0, 0.2]), np.zeros(2))
    assert far.success and far.q[1] == pytest.approx(4.4, abs=1e-4)


def test_prismatic_first_joint_centres_the_ball_on_the_base():
    model = load_robot_model(yaml_stream(
        SLIDER_YAML.replace("xyz: [0.0, 0.0, 0.0]\n      rpy",
                            "xyz: [0.0, 0.0, 0.2]\n      rpy")))
    centre, radius = dynamics._chain_reach(model)
    assert np.array_equal(centre, np.zeros(3))
    assert radius == pytest.approx(1.2, abs=1e-15)  # 0.2 offset + 1.0 travel
    assert inverse_kinematics(model, np.array([1.0, 0.0, 0.2]),
                              np.zeros(1)).success
    assert inverse_kinematics(model, np.array([1.2, 0.0, 0.1]),
                              np.zeros(1)).iterations == 0


def test_ik_without_orientation_uses_the_tool_point_ball(two_r):
    # the 2R last link's origin stays within 0.7 m of the base, the tool
    # point within 0.7 + 0.5 m
    target = np.array([1.2, 0.0, 0.0])
    backwards = rpy_matrix(0.0, 0.0, math.pi)  # last link origin at 1.7 m
    assert dynamics._outside_reach(two_r, target, backwards, 1e-4, 1e-3)
    result = inverse_kinematics(two_r, target, np.array([0.3, -0.3]),
                                orientation=backwards)
    assert not result.success and result.iterations == 0
    assert not dynamics._outside_reach(two_r, target, None, 1e-4, 1e-3)
    assert inverse_kinematics(two_r, target, np.array([0.3, -0.3])).success
    too_far = np.array([1.2 + 2e-4, 0.0, 0.0])
    assert inverse_kinematics(two_r, too_far,
                              np.array([0.3, -0.3])).iterations == 0


def test_ik_respects_joint_limits(panda, rng):
    seed = 0.5 * (panda.lower_limits + panda.upper_limits)
    for _ in range(5):
        target = np.array([rng.uniform(0.2, 0.6), rng.uniform(-0.4, 0.4),
                           rng.uniform(0.2, 0.8)])
        result = inverse_kinematics(panda, target, seed)
        assert np.all(result.q >= panda.lower_limits - 1e-12)
        assert np.all(result.q <= panda.upper_limits + 1e-12)


# ------------------------------------------- lockstep IK vs the scalar loop

def assert_lanes_match_the_scalar_loop(model, targets, seeds, orientation):
    """Every lane of one lockstep call equals the reference scalar loop
    run on that lane alone, bit for bit."""
    lanes = inverse_kinematics(model, targets, seeds, orientation)
    for b, (target, seed) in enumerate(zip(targets, seeds)):
        q, success, iterations, pos_err, ori_err = \
            ik_reference.inverse_kinematics(model, target, seed, orientation)
        assert np.array_equal(lanes.q[b], q), b
        assert (lanes.success[b], lanes.iterations[b]) == (success,
                                                            iterations), b
        assert np.array_equal(lanes.position_error[b], pos_err), b
        assert np.array_equal(lanes.orientation_error[b], ori_err), b
    return lanes


def grid(box_min, box_max, spacing):
    axes = [np.arange(lo, hi + 1e-9, spacing)
            for lo, hi in zip(box_min, box_max)]
    return np.array([(x, y, z) for z in axes[2] for y in axes[1]
                     for x in axes[0]])


def test_lockstep_ik_matches_the_scalar_loop_on_a07_boundary_boxes(panda):
    # a07 boxes on the reach boundary: points that converge and points
    # rejected by the reach proof, and one a07 point that passes the proof
    # and spends the whole budget
    targets = np.vstack([grid((0.6, 0.5, 0.15), (0.7, 0.8, 0.25), 0.1),
                         grid((-0.6, -0.7, 0.05), (-0.5, -0.4, 0.15), 0.1),
                         [(-0.6, 0.0, 0.05)]])
    seeds = np.tile(0.5 * (panda.lower_limits + panda.upper_limits),
                    (len(targets), 1))
    lanes = assert_lanes_match_the_scalar_loop(panda, targets, seeds,
                                               FLANGE_DOWN)
    assert {0, 200} <= set(lanes.iterations[~lanes.success].tolist())
    assert lanes.success.any()


@pytest.mark.parametrize("orientation", [None, FLANGE_DOWN],
                         ids=["point", "flange-down"])
def test_lockstep_ik_matches_the_scalar_loop_on_random_targets(
        panda, rng, orientation):
    targets = np.column_stack([rng.uniform(-0.9, 0.9, 16),
                               rng.uniform(-0.9, 0.9, 16),
                               rng.uniform(0.0, 1.1, 16)])
    seeds = random_joint_configs(panda, rng, 16)
    lanes = assert_lanes_match_the_scalar_loop(panda, targets, seeds,
                                               orientation)
    assert lanes.success.any() and not lanes.success.all()


def test_lockstep_ik_matches_the_scalar_loop_on_a_prismatic_model(rng):
    model = load_robot_model(yaml_stream(ARM_SLIDE_YAML))
    angle = rng.uniform(-math.pi, math.pi, 12)
    radius = rng.uniform(0.4, 1.0, 12)
    targets = np.column_stack([radius * np.cos(angle), radius * np.sin(angle),
                               np.full(12, 0.2)])
    seeds = random_joint_configs(model, rng, 12)
    lanes = assert_lanes_match_the_scalar_loop(model, targets, seeds, None)
    assert lanes.success.any() and not lanes.success.all()


def test_lockstep_ik_matches_the_scalar_loop_through_a_half_turn(panda):
    # the target orientation is the seed's turned by pi about the tool x
    # axis: the first rotation error takes the angle ~ pi branch
    seed = np.array([0.0, -0.3, 0.0, -1.8, 0.0, 1.6, 0.8])
    pose = forward_kinematics(panda, seed)
    half_turn = pose[:3, :3] @ rpy_matrix(math.pi, 0.0, 0.0)
    r_err = half_turn @ pose[:3, :3].T
    assert np.linalg.norm(r_err - r_err.T) < 1e-12  # no axis left to read
    error = dynamics._rotation_errors(half_turn, pose[None, :3, :3])[0]
    assert np.array_equal(
        error, ik_reference.rotation_error(half_turn, pose[:3, :3]))
    assert np.linalg.norm(error) == pytest.approx(math.pi, abs=1e-7)
    targets = pose[:3, 3] + np.array([[0.0, 0.0, 0.0], [0.02, -0.01, 0.03]])
    assert_lanes_match_the_scalar_loop(panda, targets, np.tile(seed, (2, 1)),
                                       half_turn)


def test_lockstep_ik_rejects_mismatched_stacks(panda):
    seeds = np.zeros((2, panda.n))
    for targets, seeds in ((np.zeros((3, 3)), seeds),
                           (np.zeros((2, 3)), np.zeros((2, 5))),
                           (np.zeros(3), seeds)):
        with pytest.raises(InputError, match="stacks"):
            inverse_kinematics(panda, targets, seeds)


def test_one_target_is_a_batch_of_one(panda):
    seed = 0.5 * (panda.lower_limits + panda.upper_limits)
    # a target that converges, one the reach proof rejects and one that
    # spends the whole budget, as a point and as a flange-down pose
    cases = (((0.4, 0.0, 0.45), None), ((2.0, 0.0, 0.5), 0),
             ((-0.6, 0.0, 0.05), 200))
    for (target, iterations), orientation in itertools.product(
            cases, (None, FLANGE_DOWN)):
        one = inverse_kinematics(panda, np.array(target), seed, orientation)
        lanes = inverse_kinematics(panda, np.array([target]), seed[None],
                                   orientation)
        fields = (one.success, one.iterations, one.position_error,
                  one.orientation_error)
        assert np.array_equal(one.q, lanes.q[0])
        assert fields == (lanes.success[0], lanes.iterations[0],
                          lanes.position_error[0], lanes.orientation_error[0])
        assert [type(value) for value in fields] == [bool, int, float, float]
        assert one.success is (iterations is None)
        assert iterations in (None, one.iterations)


@pytest.mark.parametrize("orientation", [None, FLANGE_DOWN],
                         ids=["point", "flange-down"])
def test_an_empty_stack_is_a_batch_of_zero(panda, orientation):
    result = inverse_kinematics(panda, np.zeros((0, 3)),
                                np.zeros((0, panda.n)), orientation)
    assert result.q.shape == (0, panda.n)
    fields = (result.success, result.iterations, result.position_error,
              result.orientation_error)
    assert [field.shape for field in fields] == [(0,)] * 4
    assert [field.dtype.kind for field in fields] == ["b", "i", "f", "f"]


def test_rotation_errors_match_the_scalar_form(rng):
    rotations = [rpy_matrix(*rng.uniform(-math.pi, math.pi, 3))
                 for _ in range(200)]
    rotations += [np.eye(3), rpy_matrix(1e-13, 0.0, 0.0),
                  rpy_matrix(0.0, math.pi, 0.0)]
    target = rpy_matrix(0.3, -0.2, 1.1)
    errors = dynamics._rotation_errors(target, np.array(rotations))
    for error, rotation in zip(errors, rotations):
        assert np.array_equal(error,
                              ik_reference.rotation_error(target, rotation))


def test_rpy_matrix_orthonormal(rng):
    for _ in range(20):
        r = rpy_matrix(*rng.uniform(-math.pi, math.pi, 3))
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, rel=1e-12)


def test_model_arrays_are_read_only(panda):
    # every kernel shares these arrays: writing into one is an error
    fields = {name: value for name, value in vars(panda).items()
              if isinstance(value, np.ndarray)}
    fields["reach centre"] = panda.reach[0]
    assert len(fields) == 14
    for name, array in fields.items():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
        assert not array.flags.writeable, name


def test_an_unpickled_model_is_read_only_and_equal(panda):
    # a sweep worker receives the model pickled, and numpy does not pickle
    # the writeable flag: the model is rebuilt through its constructor
    def arrays(model):
        found = {name: value for name, value in vars(model).items()
                 if isinstance(value, np.ndarray)}
        found["reach centre"] = model.reach[0]
        return found

    unpickled = pickle.loads(pickle.dumps(panda))
    original, copy = arrays(panda), arrays(unpickled)
    assert len(copy) == 14 and copy.keys() == original.keys()
    for name, array in copy.items():
        assert not array.flags.writeable, name
        assert np.array_equal(array, original[name]), name
    assert (unpickled.n, unpickled.revolute, unpickled.reach[1]) == (
        panda.n, panda.revolute, panda.reach[1])


def test_joint_transform_zero_angle_is_fixed_origin(panda):
    transforms = dynamics._joint_transforms(panda, np.zeros((1, panda.n)))
    for transform, origin in zip(transforms[:, 0], panda.origins):
        assert np.allclose(transform, origin, atol=1e-15)


# ------------------------------------------------------------ model loading

def test_model_rejects_indefinite_inertia():
    bad = TWO_R_YAML.replace("{ixx: 0.0, iyy: 0.0, izz: 0.0}",
                             "{ixx: -1.0, iyy: 0.0, izz: 0.0}", 1)
    with pytest.raises(InputError, match="inertia"):
        load_robot_model(yaml_stream(bad))


def test_model_rejects_bad_limits():
    bad = TWO_R_YAML.replace("lower: -3.14", "lower: 4.0", 1)
    with pytest.raises(InputError, match="limits"):
        load_robot_model(yaml_stream(bad))


def test_model_rejects_zero_axis():
    bad = TWO_R_YAML.replace("axis: [0.0, 0.0, 1.0]", "axis: [0.0, 0.0, 0.0]", 1)
    with pytest.raises(InputError, match="axis"):
        load_robot_model(yaml_stream(bad))


def test_model_rejects_missing_key():
    bad = TWO_R_YAML.replace(f"    mass: {M1}\n", "", 1)
    with pytest.raises(InputError, match="mass"):
        load_robot_model(yaml_stream(bad))


#: (text, malformed replacement) -> the words its error must contain
_MALFORMED_MODEL_VALUES = {
    (f"    mass: {M1}\n", "    mass: x\n"): "mass must be a number",
    (f"    mass: {M1}\n", f"    mass: {M1}\n    moving: \"false\"\n"):
        "moving must be true or false",
    (f"com: [{A1}", "com: [zero"): "com must be a number",
    ("lower: -3.14", "lower: [1]"): "lower must be a number",
    ("  - name: upper\n", "  - 3\n  - name: upper\n"):
        "link 0 must be a mapping",
    (f"end_effector:\n  xyz: [{A2}, 0.0, 0.0]\n  rpy: [0.0, 0.0, 0.0]\n",
     "end_effector: 3\n"): "end_effector must be a mapping",
    ("rpy: [0.0, 0.0, 0.0]", "rpy: [0.0]"): "rpy must be three numbers",
    ("name: planar-2r", "name: [planar-2r"): "invalid YAML",
}


@pytest.mark.parametrize("old, new", _MALFORMED_MODEL_VALUES)
def test_model_rejects_malformed_values(old, new):
    bad = TWO_R_YAML.replace(old, new, 1)
    assert bad != TWO_R_YAML
    with pytest.raises(InputError, match=_MALFORMED_MODEL_VALUES[old, new]):
        load_robot_model(yaml_stream(bad))


@pytest.mark.parametrize("old, new, key", [
    ("    moving: false\n", "    movin: false\n", "movin"),
    ("end_effector:", "end_efector:", "end_efector"),
    ("      lower: -2.8973", "      lowr: -2.8973", "lowr"),
    ("      axis: [0.0, 0.0, 1.0]", "      axs: [0.0, 0.0, 1.0]", "axs"),
    ("ixy: -0.000139", "ixyy: -0.000139", "ixyy"),
    ("mass: 4.970684", "mass: true", "mass"),
    ("com: [0.003875, 0.002081, -0.04762]", "com: [true, false, true]", "com"),
    ("mass: 4.970684", "mass: '4.970684'", "mass"),
    ("name: panda", "name: [1]", "name"),
    ("name: link3", "name: .nan", r"link 2: name"),
], ids=["movin", "end_efector", "lowr", "axs", "ixyy", "mass-true",
        "com-booleans", "mass-quoted", "name-list", "link-name-nan"])
def test_model_rejects_misspelt_keys_and_mistyped_values(old, new, key):
    # each of these loaded silently before, with a default in its place
    text = robot_model_path().read_text(encoding="utf-8")
    bad = text.replace(old, new, 1)
    assert bad != text
    with pytest.raises(InputError, match=key):
        load_robot_model(yaml_stream(bad))


@pytest.mark.parametrize("old, new, names", [
    ("xyz: [0.0, 0.0, 0.0]", "xyz: [0.0, .nan, 0.0]", r"link 0 \(upper\): xyz"),
    (f"xyz: [{A1}, 0.0, 0.0]", f"xyz: [{A1}, -.inf, 0.0]",
     r"link 1 \(lower\): xyz"),
    ("      rpy: [0.0, 0.0, 0.0]", "      rpy: [.inf, 0.0, 0.0]",
     r"link 0 \(upper\): rpy"),
    ("axis: [0.0, 0.0, 1.0]", "axis: [0.0, .nan, 1.0]",
     r"link 0 \(upper\): axis"),
    (f"com: [{A1}", "com: [.nan", r"link 0 \(upper\): com"),
    (f"xyz: [{A2}, 0.0, 0.0]", f"xyz: [{A2}, .inf, 0.0]", "end_effector: xyz"),
    ("  rpy: [0.0, 0.0, 0.0]\nlinks", "  rpy: [0.0, 0.0, .nan]\nlinks",
     "end_effector: rpy"),
])
def test_model_rejects_non_finite_values(old, new, names):
    # rejected at load, naming the link and the key, before any kinematics
    bad = TWO_R_YAML.replace(old, new, 1)
    assert bad != TWO_R_YAML
    with pytest.raises(InputError, match=names + " must be finite"):
        load_robot_model(yaml_stream(bad))


def test_model_rejects_unknown_joint_type():
    bad = TWO_R_YAML.replace("axis: [0.0, 0.0, 1.0]",
                             "axis: [0.0, 0.0, 1.0]\n      type: helical", 1)
    with pytest.raises(InputError, match="helical"):
        load_robot_model(yaml_stream(bad))


def _assert_same_model(model, other):
    """Every field of two models equal, arrays entry by entry."""
    for field in dataclasses.fields(model):
        mine, theirs = getattr(model, field.name), getattr(other, field.name)
        if field.name == "reach":
            assert np.array_equal(mine[0], theirs[0]) and mine[1:] == theirs[1:]
        elif isinstance(mine, np.ndarray):
            assert np.array_equal(mine, theirs), field.name
        else:
            assert mine == theirs, field.name


def test_one_text_is_parsed_once(tmp_path):
    path = tmp_path / "arm.yaml"
    path.write_text(TWO_R_YAML, encoding="utf-8")
    model = load_robot_model(path)
    # a path, its bytes and a stream of its text share one parse
    assert load_robot_model(path) is model
    assert load_robot_model(str(path)) is model
    assert load_robot_model(path.read_bytes()) is model
    assert load_robot_model(yaml_stream(TWO_R_YAML)) is model
    assert load_robot_model(robot_model_path()) is load_robot_model(
        robot_model_path())


def test_an_edited_file_is_parsed_again(tmp_path):
    path = tmp_path / "arm.yaml"
    path.write_text(TWO_R_YAML, encoding="utf-8")
    model = load_robot_model(path)
    path.write_text(TWO_R_YAML.replace(f"mass: {M1}", "mass: 3.0", 1),
                    encoding="utf-8")
    edited = load_robot_model(path)
    assert edited is not model
    assert edited.masses.tolist() == [3.0, M2] and model.masses[0] == M1
    dynamics._parse_robot_model.cache_clear()
    fresh = load_robot_model(path)
    assert fresh is not edited
    _assert_same_model(edited, fresh)


def test_a_malformed_model_fails_on_every_load(tmp_path):
    path = tmp_path / "arm.yaml"
    path.write_text(TWO_R_YAML.replace("lower: -3.14", "lower: 4.0", 1),
                    encoding="utf-8")
    parse = dynamics._parse_robot_model
    before = parse.cache_info()
    for _ in range(3):
        with pytest.raises(InputError, match="limits"):
            load_robot_model(path)
    after = parse.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (3, 0)


def test_the_cache_holds_a_bounded_number_of_models():
    for mass in range(LOADER_CACHE_SIZE + 3):
        load_robot_model(yaml_stream(
            TWO_R_YAML.replace(f"mass: {M1}", f"mass: {mass + 1}.0", 1)))
    assert dynamics._parse_robot_model.cache_info().currsize == \
        LOADER_CACHE_SIZE


def test_wrong_joint_count_rejected(panda):
    with pytest.raises(InputError, match=r"q must have shape \(7,\)"):
        forward_kinematics(panda, np.zeros(5))


@pytest.mark.parametrize("kernel", [link_frames, forward_kinematics,
                                    point_jacobian, frame_jacobian,
                                    manipulability, mass_matrix])
def test_every_kernel_checks_the_entries_of_q(panda, kernel):
    # a NaN q gave manipulability NaN and a RuntimeWarning, and reflected
    # mass inf, a "constrained" direction
    q = np.array([0.0, -0.3, 0.0, -1.8, 0.0, 1.6, 0.8])
    for bad in (math.nan, math.inf):
        stack = np.tile(q, (3, 1))
        stack[1, 3] = bad
        with pytest.raises(InputError, match="^configuration: q must be finite"):
            kernel(panda, stack)
    with pytest.raises(InputError, match="^configuration: q must be numbers"):
        kernel(panda, q > 0)
    # a list or an integer array is still a configuration
    assert np.array_equal(kernel(panda, q.tolist()), kernel(panda, q))
    assert np.array_equal(kernel(panda, np.zeros(7, dtype=int)),
                          kernel(panda, np.zeros(7)))
