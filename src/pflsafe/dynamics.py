"""Rigid-body model of a serial manipulator and its contact dynamics.

The model is a fixed-base kinematic chain loaded from a YAML description:
per link a 1-DoF joint (revolute or prismatic, arbitrary fixed origin and
axis), the link mass, centre of mass and rotational inertia about the COM,
all in the link frame.  On top of the chain this module provides

  * forward kinematics and the point Jacobian,
  * the joint-space mass matrix, summed link by link from the Jacobians at
    the link centres of mass (one Jacobian kernel serves both),
  * the directional reflected (effective) mass at a contact point,
        m_u = 1 / (u^T (J M^-1 J^T) u)
    i.e. the apparent mass a collision along unit direction u runs into,
  * the constant effective-mass convention used by power-and-force-limiting
    practice: half the total moving link mass plus payload,
  * damped-least-squares inverse kinematics.

Angular quantities use the world frame, and Jacobian rows are ordered
(linear; angular).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ConstrainedDirectionError, DomainError, SchemaError,
                     ValidationError)
from .schema import Source, flag, mapping, number, read_mapping, vector3

#: below this value of u^T (J M^-1 J^T) u [1/kg] a direction is treated as
#: structurally constrained (no feasible motion, reflected mass unbounded)
SINGULAR_GUARD = 1e-9

#: flange orientation used by workspace analyses: tool axis pointing down,
#: tool x aligned with world x
FLANGE_DOWN = np.array([[1.0, 0.0, 0.0],
                        [0.0, -1.0, 0.0],
                        [0.0, 0.0, -1.0]])


@dataclass(frozen=True, eq=False)
class Joint:
    kind: str                 # "revolute" | "prismatic"
    origin: np.ndarray        # 4x4 fixed transform, parent link -> joint frame
    axis: np.ndarray          # unit vector in the joint frame
    lower: float
    upper: float


@dataclass(frozen=True, eq=False)
class Link:
    name: str
    joint: Joint
    mass: float
    com: np.ndarray           # 3, in link frame
    inertia: np.ndarray       # 3x3 about COM, in link frame
    moving: bool = True       # counts toward the moving-mass total


@dataclass(frozen=True, eq=False)
class ManipulatorModel:
    name: str
    links: tuple[Link, ...]
    ee_offset: np.ndarray     # 4x4, last link frame -> tool/contact frame

    @property
    def n(self) -> int:
        return len(self.links)

    @property
    def lower_limits(self) -> np.ndarray:
        return np.array([ln.joint.lower for ln in self.links])

    @property
    def upper_limits(self) -> np.ndarray:
        return np.array([ln.joint.upper for ln in self.links])


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation matrix from fixed-axis roll/pitch/yaw (x, then y, then z)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def make_transform(xyz: Sequence[float], rpy: Sequence[float]) -> np.ndarray:
    t = np.eye(4)
    t[:3, :3] = rpy_matrix(*rpy)
    t[:3, 3] = xyz
    return t


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def _axis_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    k = _skew(axis)
    return np.eye(3) * c + s * k + (1.0 - c) * np.outer(axis, axis)


# ---------------------------------------------------------------- loading

#: accepted keys at each level of the model file; any other key is an error
MODEL_KEYS = {
    "model": ("name", "end_effector", "links"),
    "end_effector": ("xyz", "rpy"),
    "link": ("name", "joint", "mass", "com", "inertia", "moving"),
    "joint": ("type", "xyz", "rpy", "axis", "lower", "upper"),
    "inertia": ("ixx", "ixy", "ixz", "iyy", "iyz", "izz"),
}


def load_robot_model(source: Source) -> ManipulatorModel:
    """Load and validate a manipulator description from YAML."""
    raw = read_mapping(source, "robot model", MODEL_KEYS["model"])
    link_specs = raw.get("links")
    if not isinstance(link_specs, list) or not link_specs:
        raise SchemaError("robot model: 'links' must be a non-empty list")
    links = tuple(_parse_link(idx, spec) for idx, spec in enumerate(link_specs))
    ee_spec = mapping("end_effector", raw.get("end_effector", {}),
                      MODEL_KEYS["end_effector"])
    ee_offset = make_transform(
        vector3("end_effector", "xyz", ee_spec.get("xyz", [0, 0, 0])),
        vector3("end_effector", "rpy", ee_spec.get("rpy", [0, 0, 0])))
    return ManipulatorModel(name=str(raw.get("name", "robot")), links=links,
                            ee_offset=ee_offset)


def _parse_link(idx: int, spec) -> Link:
    spec = mapping(f"link {idx}", spec, MODEL_KEYS["link"])
    where = f"link {idx} ({spec.get('name', '?')})"
    # a missing required key reads as None, which no rule accepts
    jspec = mapping(f"{where}: joint", spec.get("joint"), MODEL_KEYS["joint"])
    mass = number(where, "mass", spec.get("mass"), ge=0)
    com = vector3(where, "com", spec.get("com"))
    ispec = mapping(f"{where}: inertia", spec.get("inertia"),
                    MODEL_KEYS["inertia"])
    ixx, iyy, izz = (number(where, key, ispec.get(key))
                     for key in ("ixx", "iyy", "izz"))
    ixy, ixz, iyz = (number(where, key, ispec.get(key, 0.0))
                     for key in ("ixy", "ixz", "iyz"))

    kind = jspec.get("type", "revolute")
    if kind not in ("revolute", "prismatic"):
        raise SchemaError(f"{where}: unsupported joint type {kind!r}")
    axis = vector3(where, "axis", jspec.get("axis", [0, 0, 1]))
    norm = math.hypot(*axis)  # no overflow for a huge component
    if norm < 1e-12:
        raise ValidationError(f"{where}: joint axis must be non-zero")
    axis = axis / norm
    lower = number(where, "lower", jspec.get("lower", -math.inf), allow_inf=True)
    upper = number(where, "upper", jspec.get("upper", math.inf), allow_inf=True)
    if not lower < upper:
        raise ValidationError(f"{where}: joint limits must satisfy lower < upper")

    inertia = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])
    eigmin = float(np.linalg.eigvalsh(inertia)[0])
    if eigmin < -1e-10:
        raise ValidationError(
            f"{where}: inertia tensor not positive semi-definite "
            f"(min eigenvalue {eigmin:g})")

    origin = make_transform(vector3(where, "xyz", jspec.get("xyz", [0, 0, 0])),
                            vector3(where, "rpy", jspec.get("rpy", [0, 0, 0])))
    joint = Joint(kind=kind, origin=origin, axis=axis, lower=lower, upper=upper)
    return Link(name=str(spec.get("name", f"link{idx + 1}")), joint=joint,
                mass=mass, com=com, inertia=inertia,
                moving=flag(where, "moving", spec.get("moving", True)))


# ------------------------------------------------------------- kinematics

def _check_q(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (model.n,):
        raise DomainError(f"q must have shape ({model.n},), got {q.shape}")
    return q


def joint_transform(link: Link, qi: float) -> np.ndarray:
    """Parent-link-frame -> link-frame transform at joint value qi."""
    t = link.joint.origin.copy()
    if link.joint.kind == "revolute":
        t[:3, :3] = t[:3, :3] @ _axis_rotation(link.joint.axis, qi)
    else:
        t[:3, 3] = t[:3, 3] + t[:3, :3] @ (link.joint.axis * qi)
    return t


def link_frames(model: ManipulatorModel, q: np.ndarray) -> list[np.ndarray]:
    """World pose of every link frame (list of 4x4, chain order)."""
    q = _check_q(model, q)
    frames = []
    t = np.eye(4)
    for link, qi in zip(model.links, q):
        t = t @ joint_transform(link, qi)
        frames.append(t)
    return frames


def forward_kinematics(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """World pose (4x4) of the tool/contact frame."""
    return link_frames(model, q)[-1] @ model.ee_offset


def _jacobians(model: ManipulatorModel, frames: list[np.ndarray],
               points: np.ndarray, links: Sequence[int]) -> np.ndarray:
    """(k, 6, n) Jacobians, rows (linear; angular), of k world points.

    Point i, row i of the (k, 3) ``points``, moves with link ``links[i]``;
    the columns of joints distal to that link are zero.  The cross product
    is written out in ``np.cross``'s own order, so it rounds the same.
    """
    axes = np.array([frame[:3, :3] @ link.joint.axis
                     for frame, link in zip(frames, model.links)])
    lever = points[:, None, :] - np.array([frame[:3, 3] for frame in frames])
    a0, a1, a2 = axes.T
    b0, b1, b2 = lever[..., 0], lever[..., 1], lever[..., 2]
    jac = np.empty((len(points), 6, model.n))
    jac[:, 0] = a1 * b2 - a2 * b1
    jac[:, 1] = a2 * b0 - a0 * b2
    jac[:, 2] = a0 * b1 - a1 * b0
    jac[:, 3:] = axes.T
    prismatic = [i for i, link in enumerate(model.links)
                 if link.joint.kind == "prismatic"]
    if prismatic:
        jac[:, :3, prismatic] = axes[prismatic].T
        jac[:, 3:, prismatic] = 0.0
    for point_jac, link in zip(jac, links):
        point_jac[:, link + 1:] = 0.0
    return jac


def _contact_kinematics(model: ManipulatorModel, frames: list[np.ndarray],
                        link_index: int | None = None,
                        local_point: np.ndarray | None = None,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """World pose (4x4) and 6 x n Jacobian, rows (linear; angular), of a
    contact frame, from the link frames of one ``link_frames`` pass.

    The contact frame defaults to the tool frame on the last link; with
    ``link_index`` it is that link's frame, moved to ``local_point`` (link
    coordinates) when given.  Columns of joints distal to the contact link
    are zero.
    """
    idx = model.n - 1 if link_index is None else link_index
    if not 0 <= idx < model.n:
        raise DomainError(f"link_index out of range: {link_index!r}")
    pose = frames[idx]
    if local_point is None:
        if idx == model.n - 1:
            pose = pose @ model.ee_offset
    else:
        local = np.asarray(local_point, dtype=float)
        pose = pose.copy()
        pose[:3, 3] = pose[:3, :3] @ local + pose[:3, 3]
    return pose, _jacobians(model, frames, pose[None, :3, 3], [idx])[0]


def point_jacobian(model: ManipulatorModel, q: np.ndarray,
                   link_index: int | None = None,
                   local_point: np.ndarray | None = None) -> np.ndarray:
    """Translational Jacobian (3 x n) of a contact point.

    Defaults to the tool frame origin on the last link.  Columns of joints
    distal to the contact link are zero.
    """
    frames = link_frames(model, q)
    return _contact_kinematics(model, frames, link_index, local_point)[1][:3]


def frame_jacobian(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """Full 6 x n Jacobian of the tool frame, rows (linear; angular)."""
    return _contact_kinematics(model, link_frames(model, q))[1]


def manipulability(model: ManipulatorModel, q: np.ndarray) -> float:
    """Translational manipulability sqrt(det(J J^T)) at the tool point."""
    j = point_jacobian(model, q)
    return math.sqrt(max(float(np.linalg.det(j @ j.T)), 0.0))


# ------------------------------------------------------------ mass matrix

def _mass_matrix(model: ManipulatorModel,
                 frames: list[np.ndarray]) -> np.ndarray:
    """M = sum over links of m J_v^T J_v + J_w^T (R I R^T) J_w, with every
    link's Jacobian taken at its centre of mass in one kernel call."""
    rots = [frame[:3, :3] for frame in frames]
    coms = np.array([rot @ link.com + frame[:3, 3]
                     for rot, frame, link in zip(rots, frames, model.links)])
    jac = _jacobians(model, frames, coms, range(model.n))
    inertia = np.zeros((model.n, 6, 6))
    for block, rot, link in zip(inertia, rots, model.links):
        block[:3, :3] = link.mass * np.eye(3)
        block[3:, 3:] = rot @ link.inertia @ rot.T
    return np.sum(jac.transpose(0, 2, 1) @ inertia @ jac, axis=0)


def mass_matrix(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """Joint-space mass matrix M(q), from the Jacobians at the link COMs."""
    return _mass_matrix(model, link_frames(model, q))


# -------------------------------------------------------- reflected mass

@dataclass(frozen=True, eq=False)
class ReflectedMassQuery:
    """Directional effective-mass request at a contact point."""

    q: np.ndarray
    u: np.ndarray                        # unit (3,) or (d, 3) stack, world frame
    link_index: int | None = None        # default: last link
    local_point: np.ndarray | None = None  # default: tool frame origin

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        if u.shape[-1:] != (3,) or u.ndim > 2 or u.size == 0:
            raise ValidationError(
                f"u must be a 3-vector or a non-empty (d, 3) stack, "
                f"got shape {u.shape}")
        norms = np.atleast_1d(np.linalg.norm(u, axis=-1))
        bad = norms[np.abs(norms - 1.0) > 1e-9]
        if bad.size:
            raise ValidationError(
                f"u must be a unit vector (|u| = {bad[0]:.12g})")


def reflected_mass(model: ManipulatorModel,
                   query: ReflectedMassQuery) -> float | np.ndarray:
    """Effective mass [kg] felt by a collision along query.u.

    m_u = (u^T Lambda^-1 u)^-1 with Lambda^-1 = J M^-1 J^T the inverse
    operational-space inertia at the contact point.  For one direction the
    result is a float, and a direction with no feasible motion raises
    ConstrainedDirectionError.  For a (d, 3) stack the Jacobian, M and
    Lambda^-1 are built once and the result is a (d,) array holding inf for
    each constrained direction.
    """
    frames = link_frames(model, query.q)
    jac = _contact_kinematics(model, frames, query.link_index,
                              query.local_point)[1][:3]
    m = _mass_matrix(model, frames)
    lam_inv = jac @ np.linalg.solve(m, jac.T)
    u = np.asarray(query.u, dtype=float)
    if u.ndim == 2:
        masses = np.empty(len(u))
        for k, row in enumerate(u):
            s = float(row @ lam_inv @ row)
            masses[k] = math.inf if s < SINGULAR_GUARD else 1.0 / s
        return masses
    s = float(u @ lam_inv @ u)
    if s < SINGULAR_GUARD:
        raise ConstrainedDirectionError(
            f"direction {u.tolist()} is structurally constrained "
            f"(u^T Lambda^-1 u = {s:.3g} 1/kg)")
    return 1.0 / s


def iso_effective_mass(model: ManipulatorModel, payload: float = 0.0) -> float:
    """Constant effective robot mass: half the moving link mass plus payload.

    "Moving" links are those whose mass can translate toward a person
    (links marked ``moving: false`` in the model file are excluded).
    """
    if payload < 0 or not math.isfinite(payload):
        raise DomainError(f"payload must be finite and >= 0, got {payload!r}")
    total = sum(link.mass for link in model.links if link.moving)
    return 0.5 * total + payload


# --------------------------------------------------------------------- IK

@dataclass(frozen=True, eq=False)
class IKResult:
    q: np.ndarray
    success: bool
    iterations: int
    position_error: float
    orientation_error: float


def _rotation_error(r_target: np.ndarray, r_current: np.ndarray) -> np.ndarray:
    """Axis-angle error vector (world frame) rotating current onto target."""
    r_err = r_target @ r_current.T
    cos_angle = (np.trace(r_err) - 1.0) / 2.0
    cos_angle = min(1.0, max(-1.0, cos_angle))
    angle = math.acos(cos_angle)
    if angle < 1e-12:
        return np.zeros(3)
    axis = np.array([r_err[2, 1] - r_err[1, 2],
                     r_err[0, 2] - r_err[2, 0],
                     r_err[1, 0] - r_err[0, 1]])
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        # angle ~ pi: pull the axis from the diagonal
        idx = int(np.argmax(np.diag(r_err)))
        axis = np.sqrt(np.maximum((np.diag(r_err) + 1.0) / 2.0, 0.0))
        axis[(idx + 1) % 3] *= math.copysign(1.0, r_err[idx, (idx + 1) % 3])
        axis[(idx + 2) % 3] *= math.copysign(1.0, r_err[idx, (idx + 2) % 3])
        return angle * axis / np.linalg.norm(axis)
    return angle * axis / norm


def _chain_reach(model: ManipulatorModel) -> tuple[np.ndarray, float]:
    """Centre and radius of a ball holding the last link's origin for every
    in-limit q.

    Link k's origin sits ``xyz_k`` from link k-1's origin, rotated by
    whatever q does upstream, so a revolute joint adds ||xyz_k|| and a
    prismatic joint ||xyz_k|| plus its largest |travel| (infinite travel
    gives an infinite radius).  A revolute joint 1 does not move its own
    origin, so the ball is centred there; a prismatic joint 1 does, so the
    ball is centred on the base and joint 1 counts too.
    """
    first = model.links[0].joint
    revolute_base = first.kind == "revolute"
    centre = first.origin[:3, 3] if revolute_base else np.zeros(3)
    radius = 0.0
    for link in model.links[1 if revolute_base else 0:]:
        joint = link.joint
        radius += math.hypot(*joint.origin[:3, 3])
        if joint.kind == "prismatic":
            radius += max(abs(joint.lower), abs(joint.upper))
    return centre, radius


def _outside_reach(model: ManipulatorModel, target: np.ndarray,
                   orientation: np.ndarray | None, pos_tol: float,
                   ori_tol: float) -> bool:
    """True when no in-limit q brings the tool within IK's tolerances of
    the target pose (see ``inverse_kinematics``)."""
    centre, radius = _chain_reach(model)
    ee_xyz = model.ee_offset[:3, 3]
    ee_reach = math.hypot(*ee_xyz)
    if orientation is None:
        point = target
        radius += ee_reach + pos_tol
    else:
        point = target - orientation @ (model.ee_offset[:3, :3].T @ ee_xyz)
        radius += pos_tol + ee_reach * ori_tol
    return math.dist(point, centre) > radius


def inverse_kinematics(model: ManipulatorModel, target: np.ndarray,
                       seed: np.ndarray, orientation: np.ndarray | None = None,
                       pos_tol: float = 1e-4, ori_tol: float = 1e-3,
                       max_iter: int = 200, damping: float = 1e-3,
                       step_clamp: float = 0.2) -> IKResult:
    """Damped-least-squares IK for the tool point (optionally full pose).

    Iterates q += J^T (J J^T + damping^2 I)^-1 e with each update clamped to
    ``step_clamp`` (largest joint move per iteration) and the result clipped
    to joint limits.  Success requires position error < pos_tol, and
    orientation error < ori_tol when a target orientation (a rotation
    matrix) is given.

    A target no in-limit q can reach is rejected before the first
    iteration.  Whatever q is, the last link's origin p_n lies within
    R = sum over k >= 2 of ||xyz_k|| of link 1's origin (``_chain_reach``:
    prismatic joints add their travel).  With an orientation R_t, a
    converged pose puts p_n within pos_tol + ||ee_xyz|| * ori_tol of
    target - R_t R_ee^T ee_xyz, so that point must lie within R plus this
    margin.  Without one, the tool point itself must lie within
    R + ||ee_xyz|| + pos_tol.  A rejected target returns the clipped seed
    with ``success=False``, ``iterations == 0`` and the seed's errors.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (3,):
        raise DomainError(f"target must be a 3-vector, got {target.shape}")
    lower, upper = model.lower_limits, model.upper_limits
    q = np.clip(np.asarray(seed, dtype=float).copy(), lower, upper)
    if _outside_reach(model, target, orientation, pos_tol, ori_tol):
        max_iter = 0  # out of reach: report the seed's errors and stop

    pos_err = ori_err = math.inf
    for iteration in range(max_iter + 1):
        t_ee, jac = _contact_kinematics(model, link_frames(model, q))
        err_p = target - t_ee[:3, 3]
        pos_err = float(np.linalg.norm(err_p))
        if orientation is None:
            ori_err = 0.0
            if pos_err < pos_tol:
                return IKResult(q, True, iteration, pos_err, ori_err)
            err = err_p
            jac = jac[:3]
        else:
            err_o = _rotation_error(orientation, t_ee[:3, :3])
            ori_err = float(np.linalg.norm(err_o))
            if pos_err < pos_tol and ori_err < ori_tol:
                return IKResult(q, True, iteration, pos_err, ori_err)
            err = np.concatenate([err_p, err_o])
        if iteration == max_iter:
            break
        jjt = jac @ jac.T
        jjt[np.diag_indices_from(jjt)] += damping * damping
        step = jac.T @ np.linalg.solve(jjt, err)
        biggest = float(np.max(np.abs(step)))
        if biggest > step_clamp:
            step *= step_clamp / biggest
        q = np.clip(q + step, lower, upper)

    return IKResult(q, False, max_iter, pos_err, ori_err)
