"""Rigid-body model of a serial manipulator and its contact dynamics.

The model is a fixed-base kinematic chain loaded from a YAML description:
per link a 1-DoF joint (revolute or prismatic, arbitrary fixed origin and
axis), the link mass, centre of mass and rotational inertia about the COM,
all in the link frame.  On top of the chain this module provides

  * forward kinematics and the point Jacobian,
  * the joint-space mass matrix, summed link by link from the Jacobians at
    the link centres of mass (one Jacobian kernel serves both),
  * the directional reflected (effective) mass at the tool frame origin,
        m_u = 1 / (u^T (J M^-1 J^T) u)
    i.e. the apparent mass a collision along unit direction u runs into,
  * the constant effective-mass convention used by power-and-force-limiting
    practice: half the total moving link mass plus payload,
  * damped-least-squares inverse kinematics.

Angular quantities use the world frame, and Jacobian rows are ordered
(linear; angular).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError
from .schema import (LOADER_CACHE_SIZE, Source, flag, mapping, number,
                     parse_mapping, read_text, text, vector3)

#: below this value of u^T (J M^-1 J^T) u [1/kg] a direction is treated as
#: structurally constrained (no feasible motion, reflected mass unbounded)
SINGULAR_GUARD = 1e-9

#: flange orientation used by workspace analyses: tool axis pointing down,
#: tool x aligned with world x
FLANGE_DOWN = np.array([[1.0, 0.0, 0.0],
                        [0.0, -1.0, 0.0],
                        [0.0, 0.0, -1.0]])


@dataclass(frozen=True, eq=False)
class ManipulatorModel:
    """The chain as read-only arrays, one row per link in chain order, and
    derived from them the kernels' Rodrigues constants of the revolute
    joints (``skews @ w`` is ``axis x w``) and the ``_chain_reach`` centre
    and radii of the last link's origin and of the wrist, link n-1's."""

    origins: np.ndarray        # (n, 4, 4) parent link frame -> joint frame
    axes: np.ndarray           # (n, 3) unit joint axes, in the joint frames
    prismatic: np.ndarray      # indices of the prismatic joints
    lower_limits: np.ndarray   # (n,) joint limits [rad or m], may be -inf
    upper_limits: np.ndarray   # (n,), may be inf
    masses: np.ndarray         # (n,)
    coms: np.ndarray           # (n, 3) centres of mass, in the link frames
    inertias: np.ndarray       # (n, 3, 3) about the COMs, in the link frames
    moving: np.ndarray         # (n,) bool: counts toward the moving mass
    ee_offset: np.ndarray      # (4, 4) last link frame -> tool frame
    n: int = field(init=False)
    revolute: slice | np.ndarray = field(init=False)  # a slice if all turn
    turns: np.ndarray = field(init=False)
    skews: np.ndarray = field(init=False)
    outers: np.ndarray = field(init=False)
    reach: tuple[np.ndarray, float, float] = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.masses)
        revolute = (slice(None) if not self.prismatic.size
                    else np.setdiff1d(np.arange(n), self.prismatic))
        axes = self.axes[revolute][:, None]
        skews = np.zeros((len(axes), 1, 3, 3))
        skews[..., _LAST, _NEXT], skews[..., _NEXT, _LAST] = axes, -axes
        for name, value in dict(
                n=n, revolute=revolute, skews=skews,
                turns=self.origins[revolute, None, :3, :3],
                outers=axes[..., :, None] * axes[..., None, :]).items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "reach", (*_chain_reach(self),
                                           _chain_reach(self, -2)[1]))
        for value in (*vars(self).values(), self.reach[0]):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


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


_EYE3, _EYE4 = np.eye(3), np.eye(4)
#: cyclic successors (i+1, i+2 mod 3) of each component of a 3-vector
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


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
    """Load and validate a manipulator description from YAML; the model and
    link names are validated, not kept.  The source is read on every call,
    and each distinct text is parsed once per process: its model, read-only
    throughout, is shared by every caller."""
    return _parse_robot_model(read_text(source))


@functools.lru_cache(maxsize=LOADER_CACHE_SIZE)
def _parse_robot_model(content: str) -> ManipulatorModel:
    raw = parse_mapping(content, "robot model", MODEL_KEYS["model"])
    link_specs = raw.get("links")
    if not isinstance(link_specs, list) or not link_specs:
        raise InputError("robot model: 'links' must be a non-empty list")
    rows = [_parse_link(idx, spec) for idx, spec in enumerate(link_specs)]
    (prismatic, origins, axes, lower, upper, masses, coms, inertias,
     moving) = map(np.array, zip(*rows))
    ee_spec = mapping("end_effector", raw.get("end_effector", {}),
                      MODEL_KEYS["end_effector"])
    ee_offset = make_transform(
        vector3("end_effector", "xyz", ee_spec.get("xyz", [0, 0, 0])),
        vector3("end_effector", "rpy", ee_spec.get("rpy", [0, 0, 0])))
    text("robot model", "name", raw.get("name", "robot"))
    return ManipulatorModel(origins, axes, np.flatnonzero(prismatic), lower,
                            upper, masses, coms, inertias, moving, ee_offset)


def _parse_link(idx: int, spec) -> tuple:
    """(prismatic, origin, axis, lower, upper, mass, com, inertia, moving)"""
    spec = mapping(f"link {idx}", spec, MODEL_KEYS["link"])
    name = text(f"link {idx}", "name", spec.get("name", f"link{idx + 1}"))
    where = f"link {idx} ({name})"
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
        raise InputError(f"{where}: unsupported joint type {kind!r}")
    axis = vector3(where, "axis", jspec.get("axis", [0, 0, 1]))
    norm = math.hypot(*axis)  # no overflow for a huge component
    if norm < 1e-12:
        raise InputError(f"{where}: joint axis must be non-zero")
    lower = number(where, "lower", jspec.get("lower", -math.inf), allow_inf=True)
    upper = number(where, "upper", jspec.get("upper", math.inf), allow_inf=True)
    if not lower < upper:
        raise InputError(f"{where}: joint limits must satisfy lower < upper")

    inertia = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])
    eigmin = float(np.linalg.eigvalsh(inertia)[0])
    if eigmin < -1e-10:
        raise InputError(
            f"{where}: inertia tensor not positive semi-definite "
            f"(min eigenvalue {eigmin:g})")

    origin = make_transform(vector3(where, "xyz", jspec.get("xyz", [0, 0, 0])),
                            vector3(where, "rpy", jspec.get("rpy", [0, 0, 0])))
    return (kind == "prismatic", origin, axis / norm, lower, upper, mass, com,
            inertia, flag(where, "moving", spec.get("moving", True)))


# ------------------------------------------------------------- kinematics
#
# Every kernel takes one configuration, q of shape (n,), or a stack of B,
# q of shape (B, n), and puts the B axis in front of its result.  Stacked
# matmul and solve run the same BLAS and LAPACK call per configuration as
# an unstacked one, and the elementwise steps are the same IEEE operations:
# each configuration rounds as it does alone under OpenBLAS's SkylakeX and
# Haswell kernels, but not under Prescott's, whose dot rounds by address.

def _check_q(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """q as finite floats, one configuration (n,) or a stack (B, n)."""
    q = number("configuration", "q", np.asarray(q))
    if q.shape[-1:] != (model.n,) or q.ndim > 2:
        raise InputError(f"q must have shape ({model.n},) or (B, {model.n}), "
                         f"got {q.shape}")
    return q


def _joint_transforms(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """Parent-link-frame -> link-frame transform of every joint for a (B, n)
    stack q, chain-major (n, B, 4, 4): a revolute joint turns its fixed
    origin by the Rodrigues rotation about its axis, a prismatic joint
    slides it along the axis."""
    q_t = q.T
    t = np.empty(q_t.shape + (4, 4))
    t[...] = model.origins[:, None]
    rev, pri = model.revolute, model.prismatic
    if len(model.turns):
        angle = q_t[rev, :, None, None]
        c, s = np.cos(angle), np.sin(angle)
        rot = _EYE3 * c + s * model.skews + (1.0 - c) * model.outers
        t[rev, :, :3, :3] = model.turns @ rot
    if pri.size:
        slide = model.axes[pri, None] * q_t[pri, :, None]
        t[pri, :, :3, 3] = model.origins[pri, None, :3, 3] + (
            model.origins[pri, None, :3, :3] @ slide[..., None])[..., 0]
    return t


def link_frames(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """World pose of every link frame, chain order: (n, 4, 4) for one
    configuration, (B, n, 4, 4) for a (B, n) stack."""
    return _frames(model, _check_q(model, q))


def _frames(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """``link_frames`` of a q that ``_check_q`` has passed."""
    joints = _joint_transforms(model, q.reshape(-1, model.n))
    # chain-major, so that each product writes one contiguous block
    frames = np.empty_like(joints)
    t = _EYE4
    for joint, frame in zip(joints, frames):
        t = np.matmul(t, joint, out=frame)
    frames = frames.swapaxes(0, 1)
    return frames if q.ndim == 2 else frames[0]


def forward_kinematics(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """World pose of the tool/contact frame: (4, 4) for one configuration,
    (B, 4, 4) for a (B, n) stack."""
    return _tool_pose(model, link_frames(model, q))


def _jacobians(model: ManipulatorModel, frames: np.ndarray,
               points: np.ndarray, links: Sequence[int]) -> np.ndarray:
    """(..., k, 6, n) Jacobians, rows (linear; angular), of k world points.

    Point i, row i of the (..., k, 3) ``points``, moves with link
    ``links[i]``; the columns of joints distal to that link are zero.  The
    cross product is written out in ``np.cross``'s own order, so it rounds
    the same.
    """
    axes = (frames[..., :3, :3] @ model.axes[:, :, None])[..., None, :, :, 0]
    lever = points[..., :, None, :] - frames[..., None, :, :3, 3]
    # component i is a[i+1] b[i+2] - a[i+2] b[i+1], as np.cross computes it:
    # [1:4] and [2:5] of an (x, y, z, x, y) copy are the cyclic successors
    a, b = (np.concatenate([v, v[..., :2]], axis=-1) for v in (axes, lever))
    cross = a[..., 1:4] * b[..., 2:5] - a[..., 2:5] * b[..., 1:4]
    axes_t = axes.mT
    jac = np.empty(points.shape[:-1] + (6, model.n))
    jac[..., :3, :] = cross.mT
    jac[..., 3:, :] = axes_t
    pri = model.prismatic
    if pri.size:
        jac[..., :3, pri] = axes_t[..., pri]
        jac[..., 3:, pri] = 0.0
    for i, link in enumerate(links):
        if link + 1 < model.n:
            jac[..., i, :, link + 1:] = 0.0
    return jac


def _tool_pose(model: ManipulatorModel, frames: np.ndarray) -> np.ndarray:
    """World pose (..., 4, 4) of the tool frame, from the link frames of one
    ``link_frames`` pass."""
    return frames[..., -1, :, :] @ model.ee_offset


def _tool_jacobian(model: ManipulatorModel, frames: np.ndarray,
                   pose: np.ndarray) -> np.ndarray:
    """(..., 6, n) Jacobian, rows (linear; angular), of the tool frame, from
    the link frames and the ``_tool_pose`` of one ``link_frames`` pass."""
    jac = _jacobians(model, frames, pose[..., None, :3, 3], [model.n - 1])
    return jac[..., 0, :, :]


def point_jacobian(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """Translational Jacobian (3 x n) of the tool frame origin."""
    return frame_jacobian(model, q)[..., :3, :]


def frame_jacobian(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """Full 6 x n Jacobian of the tool frame, rows (linear; angular)."""
    frames = link_frames(model, q)
    return _tool_jacobian(model, frames, _tool_pose(model, frames))


def manipulability(model: ManipulatorModel,
                   q: np.ndarray) -> float | np.ndarray:
    """Translational manipulability sqrt(det(J J^T)) at the tool point: a
    float for one configuration, (B,) for a (B, n) stack."""
    j = point_jacobian(model, q)
    w = np.sqrt(np.maximum(np.linalg.det(j @ j.mT), 0.0))
    return w if w.ndim else float(w)


# ------------------------------------------------------------ mass matrix

def _mass_matrix(model: ManipulatorModel, frames: np.ndarray) -> np.ndarray:
    """M = sum over links of m J_v^T J_v + J_w^T (R I R^T) J_w, with every
    link's Jacobian taken at its centre of mass in one kernel call."""
    rots = frames[..., :3, :3]
    coms = (rots @ model.coms[:, :, None])[..., 0] + frames[..., :3, 3]
    jac = _jacobians(model, frames, coms, range(model.n))
    inertia = np.zeros(frames.shape[:-2] + (6, 6))
    inertia[..., :3, :3] = model.masses[:, None, None] * np.eye(3)
    inertia[..., 3:, 3:] = rots @ model.inertias @ rots.mT
    return np.sum(jac.mT @ inertia @ jac, axis=-3)


def mass_matrix(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """Joint-space mass matrix M(q), from the Jacobians at the link COMs."""
    return _mass_matrix(model, link_frames(model, q))


# -------------------------------------------------------- reflected mass

@dataclass(frozen=True, eq=False)
class ReflectedMassQuery:
    """Directional effective-mass request at the tool frame origin."""

    q: np.ndarray                        # (n,) or (B, n) stack
    u: np.ndarray                        # unit (3,) or (d, 3) stack, world frame

    def __post_init__(self) -> None:
        u = number("ReflectedMassQuery", "u", np.asarray(self.u))
        if u.shape[-1:] != (3,) or u.ndim > 2 or u.size == 0:
            raise InputError(
                f"u must be a 3-vector or a non-empty (d, 3) stack, "
                f"got shape {u.shape}")
        norms = np.atleast_1d(np.linalg.norm(u, axis=-1))
        bad = norms[np.abs(norms - 1.0) > 1e-9]
        if bad.size:
            raise InputError(
                f"u must be a unit vector (|u| = {bad[0]:.12g})")


def reflected_mass(model: ManipulatorModel,
                   query: ReflectedMassQuery) -> float | np.ndarray:
    """Effective mass [kg] felt by a collision along query.u.

    m_u = (u^T Lambda^-1 u)^-1 with Lambda^-1 = J M^-1 J^T the inverse
    operational-space inertia at the tool frame origin.  A direction with
    no feasible motion (u^T Lambda^-1 u below SINGULAR_GUARD) has infinite
    mass.  The Jacobian, M and Lambda^-1 are built once per configuration,
    whatever the number of directions.  One configuration and one direction
    give a float, a (d, 3) stack of directions a (d,) array; a (B, n) stack
    of configurations puts B in front, (B,) or (B, d).
    """
    frames = link_frames(model, query.q)
    jac = _tool_jacobian(model, frames, _tool_pose(model, frames))[..., :3, :]
    m = _mass_matrix(model, frames)
    try:
        lam_inv = jac @ np.linalg.solve(m, jac.mT)
    except np.linalg.LinAlgError:
        # LAPACK's LU finds a zero pivot in solve exactly where slogdet does
        bad = np.flatnonzero(np.linalg.slogdet(m).sign.reshape(-1) == 0)[0]
        q = np.asarray(query.q, dtype=float).reshape(-1, model.n)[bad]
        raise InputError(f"mass matrix is singular at q = {q.tolist()}") from None
    u = np.asarray(query.u, dtype=float)
    rows = u.reshape(-1, 1, 3)
    s = (rows @ lam_inv[..., None, :, :] @ rows.mT)[..., 0, 0]
    masses = np.divide(1.0, s, out=np.full(s.shape, math.inf),
                       where=s >= SINGULAR_GUARD)
    masses = masses if u.ndim == 2 else masses[..., 0]
    return masses if masses.ndim else float(masses)


def iso_effective_mass(model: ManipulatorModel, payload: float = 0.0) -> float:
    """Constant effective robot mass: half the moving link mass plus payload.

    "Moving" links are those whose mass can translate toward a person
    (links marked ``moving: false`` in the model file are excluded).
    """
    number("iso_effective_mass", "payload", payload, ge=0)
    total = sum(model.masses[model.moving].tolist())  # left to right
    return 0.5 * total + payload


# --------------------------------------------------------------------- IK

#: IK converges within IK_POS_TOL [m] of the target point and IK_ORI_TOL
#: [rad] of a target orientation, in at most IK_MAX_ITER iterations damped
#: by IK_DAMPING, each moving no joint by more than IK_STEP_CLAMP [rad or m]
IK_POS_TOL = 1e-4
IK_ORI_TOL = 1e-3
IK_MAX_ITER = 200
IK_DAMPING = 1e-3
IK_STEP_CLAMP = 0.2


@dataclass(frozen=True, eq=False)
class IKResult:
    """IK outcome: Python scalars for one solve, (B,) arrays for B lanes."""

    q: np.ndarray                        # final iterate
    success: bool | np.ndarray
    iterations: int | np.ndarray
    position_error: float | np.ndarray
    orientation_error: float | np.ndarray


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a (B, k) stack: the square root of a
    BLAS dot, as ``np.linalg.norm`` takes it of one vector."""
    return np.sqrt(np.vecdot(v, v))


def _rotation_errors(r_target: np.ndarray, r_current: np.ndarray) -> np.ndarray:
    """Axis-angle error vectors (B, 3), world frame, rotating each of the
    (B, 3, 3) current orientations onto the target.

    The per-lane scalar steps run on Python floats, which round as NumPy's
    elementwise operations do; the angle takes math.acos, as np.arccos
    rounds differently, and the axis norm takes the BLAS dot of ``_norms``.
    """
    r_err = r_target @ r_current.mT
    rows = r_err.reshape(-1, 9).tolist()
    angles = [math.acos(min(1.0, max(-1.0, (r[0] + r[4] + r[8] - 1.0) / 2.0)))
              for r in rows]
    # (r21 - r12, r02 - r20, r10 - r01)
    axes = [(r[7] - r[5], r[2] - r[6], r[3] - r[1]) for r in rows]
    errors = []
    for lane, (angle, axis, norm) in enumerate(
            zip(angles, axes, _norms(np.array(axes)).tolist())):
        if angle < 1e-12:
            errors.append((0.0, 0.0, 0.0))
        elif norm >= 1e-12:
            errors.append(tuple(angle * a / norm for a in axis))
        else:
            # angle ~ pi: pull the axis from the diagonal
            r = r_err[lane]
            idx = int(np.argmax(np.diag(r)))
            flip = np.sqrt(np.maximum((np.diag(r) + 1.0) / 2.0, 0.0))
            flip[(idx + 1) % 3] *= math.copysign(1.0, r[idx, (idx + 1) % 3])
            flip[(idx + 2) % 3] *= math.copysign(1.0, r[idx, (idx + 2) % 3])
            errors.append(angle * flip / np.linalg.norm(flip))
    return np.array(errors)


#: metres by which float rounding may carry a computed point past a bound of
#: ``_chain_reach``, whose walk also takes an axis within 1e-12 m of a pivot
#: for one through it: the reach proof widens every bound by this much
REACH_ROUNDING = 1e-9


def _chain_reach(model: ManipulatorModel,
                 link: int = -1) -> tuple[np.ndarray, float]:
    """Centre s and radius R of a ball holding link ``link``'s origin for
    every in-limit q (-1 is the last link; with one link, -2 is the base).

    A revolute joint 1 does not move its own origin, so s is that origin; a
    prismatic joint 1 does, so s is the base.  The walk from s keeps a
    pivot P, a link origin.  A joint that turns about an axis through P,
    and every joint upstream of P, moves the origins downstream of P
    rigidly about P, so while each joint after P's turns about an axis
    through P, |p_k - P| is one constant, read at q = 0 (an axis through P
    there passes through it at every q).  At the first joint whose axis
    misses P, the origin of that joint becomes the new pivot and its
    distance from the old one is added to R.  A prismatic joint k makes
    p_k the pivot too, and adds ||xyz_k|| plus its largest |travel|
    (infinite travel gives an infinite radius).
    """
    frames = link_frames(model, np.zeros(model.n))
    points = np.vstack([np.zeros(3), frames[:, :3, 3]])  # base, p_1 .. p_n
    axes = (frames[:, :3, :3] @ model.axes[:, :, None])[..., 0]
    slides = np.isin(np.arange(model.n), model.prismatic)
    start, end = (0 if slides[0] else 1), range(model.n + 1)[link]
    pivot = centre = points[start]
    radius = 0.0
    for k in range(start + 1, end + 1):
        if k >= 2 and not slides[k - 2]:
            # joint k - 1 turns p_k about an axis through p_{k-1}; one that
            # misses P by float noise (see REACH_ROUNDING) passes through it
            lever, axis = pivot - points[k - 1], axes[k - 2]
            if math.hypot(*(lever - (lever @ axis) * axis)) > 1e-12:
                radius += math.dist(points[k - 1], pivot)
                pivot = points[k - 1]
        if slides[k - 1]:  # joint k slides p_k itself
            radius += (math.dist(points[k - 1], pivot)
                       + math.hypot(*model.origins[k - 1, :3, 3])
                       + max(abs(model.lower_limits[k - 1]),
                             abs(model.upper_limits[k - 1])))
            pivot = points[k]
    radius += math.dist(points[end], pivot)
    return centre, float(radius)


def _outside_reach(model: ManipulatorModel, target: np.ndarray,
                   orientation: np.ndarray | None, pos_tol: float,
                   ori_tol: float) -> bool:
    """True when no in-limit q brings the tool within IK's tolerances of
    the target pose (see ``inverse_kinematics``)."""
    pos_tol += REACH_ROUNDING
    centre, radius, wrist_radius = model.reach
    ee_xyz = model.ee_offset[:3, 3]
    ee_reach = math.hypot(*ee_xyz)
    if orientation is None:
        return math.dist(target, centre) > radius + ee_reach + pos_tol
    point = target - orientation @ (model.ee_offset[:3, :3].T @ ee_xyz)
    if math.dist(point, centre) > radius + pos_tol + ee_reach * ori_tol:
        return True
    if model.n - 1 in model.prismatic:
        return False
    # the wrist circle: centre, axis and radius of w = p_n - R_n Rot(q_n)^T v
    axis = model.axes[-1]
    v = model.origins[-1, :3, :3].T @ model.origins[-1, :3, 3]
    along = float(v @ axis)
    normal = orientation @ (model.ee_offset[:3, :3].T @ axis)
    offset = centre - (point - along * normal)
    height = float(offset @ normal)
    gap = math.hypot(height, math.hypot(*(offset - height * normal))
                     - math.hypot(*(v - along * axis)))
    return gap > wrist_radius + pos_tol + (ee_reach + math.hypot(*v)) * ori_tol


def inverse_kinematics(model: ManipulatorModel, target: np.ndarray,
                       seed: np.ndarray,
                       orientation: np.ndarray | None = None) -> IKResult:
    """Damped-least-squares IK for the tool point (optionally full pose).

    Iterates q += J^T (J J^T + IK_DAMPING^2 I)^-1 e with each update clamped
    to IK_STEP_CLAMP (largest joint move per iteration) and the result
    clipped to joint limits.  Success requires position error < IK_POS_TOL,
    and orientation error < IK_ORI_TOL when a target orientation (a rotation
    matrix) is given.

    A (3,) target with an (n,) seed gives an ``IKResult`` of Python scalars.
    (B, 3) targets with (B, n) seeds run B lanes in lockstep, lane b solving
    for ``target[b]`` from ``seed[b]``, and give (B,) arrays; one target is
    a batch of one, and an empty stack a batch of zero.  Each lane stops
    when it converges or spends its budget, and every iteration works on
    the lanes still running only, so a lane's iterates are those of a call
    with that lane alone: bit for bit under SkylakeX and Haswell kernels.

    A target no in-limit q can reach is rejected before the first
    iteration.  ``_chain_reach`` bounds the distance of the last link's
    origin p_n from a fixed shoulder s by R, and that of the wrist, link
    n-1's origin, by R_w.  Without an orientation, the tool point must lie
    within R + ||ee_xyz|| + IK_POS_TOL of s.  An orientation R_t fixes
    R_n = R_t R_ee^T and p_n = target - R_n ee_xyz, and a converged pose
    puts its p_n within IK_POS_TOL + ||ee_xyz|| * IK_ORI_TOL of that one (a
    turn by theta moves a point at distance r by at most r theta), so p_n
    must lie within R of s plus this margin.  A revolute last joint, with
    axis a and fixed origin v = R_o^T xyz_n in its own frame, puts the
    wrist on the circle p_n - R_n Rot(a, q_n)^T v about the axis R_n a, and
    the circle's point nearest s must lie within
    R_w + IK_POS_TOL + (||ee_xyz|| + ||v||) * IK_ORI_TOL of s.  Every bound
    is widened by REACH_ROUNDING.  A rejected target returns the clipped
    seed with ``success=False``, ``iterations == 0`` and the seed's errors.
    """
    plural = "s" if np.ndim(target) == 2 else ""
    target = number("inverse_kinematics", "target" + plural, np.asarray(target))
    seed = number("inverse_kinematics", "seed" + plural, np.asarray(seed))
    if orientation is not None:
        orientation = number("inverse_kinematics", "orientation",
                             np.asarray(orientation))
    if (target.shape[-1:] != (3,) or target.ndim > 2
            or seed.shape != target.shape[:-1] + (model.n,)):
        raise InputError(
            f"target and seed must be (3,) and ({model.n},), or (B, 3) and "
            f"(B, {model.n}) stacks, got {target.shape} and {seed.shape}")
    targets = target.reshape(-1, 3)
    lower, upper = model.lower_limits, model.upper_limits
    q = np.minimum(np.maximum(seed.reshape(-1, model.n), lower), upper)
    budget = np.array([0 if _outside_reach(model, point, orientation,
                                           IK_POS_TOL, IK_ORI_TOL)
                       else IK_MAX_ITER for point in targets], dtype=int)
    lanes = len(targets)
    out = IKResult(q=q.copy(), success=np.zeros(lanes, dtype=bool),
                   iterations=np.zeros(lanes, dtype=int),
                   position_error=np.full(lanes, math.inf),
                   orientation_error=np.full(lanes, math.inf))
    if not lanes:  # an empty stack: a batch of zero
        return out
    live = np.arange(lanes)
    for iteration in range(IK_MAX_ITER + 1):
        frames = _frames(model, q)
        pose = _tool_pose(model, frames)
        err = targets - pose[:, :3, 3]
        pos_err = _norms(err)
        if orientation is None:
            ori_err = np.zeros(live.size)
            converged = pos_err < IK_POS_TOL
        else:
            err_o = _rotation_errors(orientation, pose[:, :3, :3])
            ori_err = _norms(err_o)
            converged = (pos_err < IK_POS_TOL) & (ori_err < IK_ORI_TOL)
            err = np.concatenate([err, err_o], axis=1)
        done = converged | (budget == iteration)
        if np.count_nonzero(done):
            ended = live[done]
            out.q[ended] = q[done]
            out.success[ended] = converged[done]
            out.iterations[ended] = iteration
            out.position_error[ended] = pos_err[done]
            out.orientation_error[ended] = ori_err[done]
            running = ~done
            live, q, err = live[running], q[running], err[running]
            targets, budget = targets[running], budget[running]
            frames, pose = frames[running], pose[running]
            if not live.size:
                break
        # the Jacobian of the lanes that take a step, and of no other
        step_jac = _tool_jacobian(model, frames, pose)[:, :len(err[0])]
        step_jac_t = step_jac.mT
        jjt = step_jac @ step_jac_t
        # the diagonal, as a strided view of the fresh, contiguous product
        diagonal = jjt.reshape(len(jjt), -1)[:, ::len(err[0]) + 1]
        diagonal += IK_DAMPING * IK_DAMPING
        step = (step_jac_t @ np.linalg.solve(jjt, err[:, :, None]))[:, :, 0]
        # IK_STEP_CLAMP / biggest where it exceeds the clamp, else exactly 1
        biggest = np.maximum.reduce(np.abs(step), axis=1)
        scale = IK_STEP_CLAMP / np.maximum(biggest, IK_STEP_CLAMP)
        q = np.minimum(np.maximum(q + step * scale[:, None], lower), upper)
    if target.ndim == 2:
        return out
    return IKResult(out.q[0], bool(out.success[0]), int(out.iterations[0]),
                    float(out.position_error[0]),
                    float(out.orientation_error[0]))
