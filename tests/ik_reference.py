"""Reference damped-least-squares IK: one configuration at a time.

This is the scalar loop ``dynamics.inverse_kinematics`` ran before the
kinematics were batched over configurations, kept whole (frames, Jacobian,
rotation error and update) so that the lockstep kernel can be held to it
bit for bit.  Only the reach proof, ``dynamics._outside_reach``, is shared
with the package.
"""
import math

import numpy as np

from pflsafe import dynamics


def _axis_rotation(axis, angle):
    c, s = math.cos(angle), math.sin(angle)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) * c + s * k + (1.0 - c) * np.outer(axis, axis)


def joint_transform(model, j, qi):
    t = model.origins[j].copy()
    if j not in model.prismatic:
        t[:3, :3] = t[:3, :3] @ _axis_rotation(model.axes[j], qi)
    else:
        t[:3, 3] = t[:3, 3] + t[:3, :3] @ (model.axes[j] * qi)
    return t


def link_frames(model, q):
    frames = []
    t = np.eye(4)
    for j, qi in enumerate(q):
        t = t @ joint_transform(model, j, qi)
        frames.append(t)
    return frames


def tool_kinematics(model, frames):
    """Tool pose and 6 x n Jacobian, rows (linear; angular)."""
    pose = frames[-1] @ model.ee_offset
    axes = np.array([frame[:3, :3] @ axis
                     for frame, axis in zip(frames, model.axes)])
    lever = pose[:3, 3] - np.array([frame[:3, 3] for frame in frames])
    jac = np.empty((6, model.n))
    jac[:3] = np.cross(axes, lever).T
    jac[3:] = axes.T
    for i in range(model.n):
        if i in model.prismatic:
            jac[:3, i] = axes[i]
            jac[3:, i] = 0.0
    return pose, jac


def rotation_error(r_target, r_current):
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
        idx = int(np.argmax(np.diag(r_err)))
        axis = np.sqrt(np.maximum((np.diag(r_err) + 1.0) / 2.0, 0.0))
        axis[(idx + 1) % 3] *= math.copysign(1.0, r_err[idx, (idx + 1) % 3])
        axis[(idx + 2) % 3] *= math.copysign(1.0, r_err[idx, (idx + 2) % 3])
        return angle * axis / np.linalg.norm(axis)
    return angle * axis / norm


def inverse_kinematics(model, target, seed, orientation=None, pos_tol=1e-4,
                       ori_tol=1e-3, max_iter=200, damping=1e-3,
                       step_clamp=0.2):
    """(q, success, iterations, position_error, orientation_error)."""
    target = np.asarray(target, dtype=float)
    lower, upper = model.lower_limits, model.upper_limits
    q = np.clip(np.asarray(seed, dtype=float).copy(), lower, upper)
    if dynamics._outside_reach(model, target, orientation, pos_tol, ori_tol):
        max_iter = 0

    pos_err = ori_err = math.inf
    for iteration in range(max_iter + 1):
        t_ee, jac = tool_kinematics(model, link_frames(model, q))
        err_p = target - t_ee[:3, 3]
        pos_err = float(np.linalg.norm(err_p))
        if orientation is None:
            ori_err = 0.0
            if pos_err < pos_tol:
                return q, True, iteration, pos_err, ori_err
            err = err_p
            jac = jac[:3]
        else:
            err_o = rotation_error(orientation, t_ee[:3, :3])
            ori_err = float(np.linalg.norm(err_o))
            if pos_err < pos_tol and ori_err < ori_tol:
                return q, True, iteration, pos_err, ori_err
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
    return q, False, max_iter, pos_err, ori_err
