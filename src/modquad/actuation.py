"""Actuation analysis of a structure: controllable DOF, thrust frame, allocation.

The 6x4n design matrix splits into force rows (top three) and torque rows
(bottom three). The number of controllable DOF is

    3 + rank(force rows) - (number of force rows dependent on torque rows),

which lands in {4, 5, 6} for valid structures. The thrust frame ("F-frame")
is a body-fixed frame whose z-axis points along the direction of maximum
achievable thrust, obtained from the SVD of the force rows; the controller
tracks this frame's attitude.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DegenerateStructure, InvalidDOF
from .vehicle import DEFAULT_F_MAX, GRAVITY

RANK_TOL = 1e-8
TIE_TOL = 1e-8


@dataclass
class ActuationAnalysis:
    """Ranks, controllable DOF, thrust frame, and row selector of a structure."""

    rank_total: int
    rank_force: int
    rank_torque: int
    dependent_force_rows: int
    controllable_dof: int
    singular_values: np.ndarray  # of the force rows, normalized to [0, 1]
    f_frame: np.ndarray = None
    dimensioning: np.ndarray = None
    applicable: bool = None
    tie_broken: bool = False
    hover_residual: float = None


def _numeric_rank(matrix):
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > RANK_TOL * sigma[0]))


def analyze(a):
    """Rank/DOF analysis of a 6x4n design matrix.

    A singular value counts toward rank when it exceeds RANK_TOL times the
    largest one. Raises DegenerateStructure when the torque rows are rank
    deficient, which no valid module arrangement produces.
    """
    a = np.asarray(a, dtype=float)
    rank_total = _numeric_rank(a)
    rank_force = _numeric_rank(a[:3])
    rank_torque = _numeric_rank(a[3:])
    if rank_torque < 3:
        raise DegenerateStructure(f"torque rows have rank {rank_torque} < 3")
    dependent = rank_torque + rank_force - rank_total
    sigma = np.linalg.svd(a[:3], compute_uv=False)
    normalized = sigma / sigma[0] if sigma[0] > 0 else sigma
    return ActuationAnalysis(
        rank_total=rank_total,
        rank_force=rank_force,
        rank_torque=rank_torque,
        dependent_force_rows=dependent,
        controllable_dof=3 + rank_force - dependent,
        singular_values=normalized,
    )


def _signed(v, reference, fallback):
    """Orient v so it has positive projection on reference (or the fallback)."""
    d = float(np.dot(v, reference))
    if abs(d) < 1e-12:
        d = float(np.dot(v, fallback))
    return -v if d < 0 else v


def _f_frame_with_ties(a_f, structure):
    """Thrust-frame rotation plus a flag for tie-broken singular values.

    Equal singular values leave the SVD axes free inside their subspace;
    among the valid bases we pick the one closest in rotation angle to the
    structure frame (maximum trace), which is a deterministic stand-in for
    choosing axes by hand.
    """
    a_f = np.asarray(a_f, dtype=float)
    u, sigma, _ = np.linalg.svd(a_f)
    rank = int(np.sum(sigma > RANK_TOL * sigma[0])) if sigma[0] > 0 else 0

    if rank <= 1:
        # every rotor thrust is collinear: reuse the rotor rotation itself
        return structure.rotor_orientations[0].copy(), False

    mean_thrust = structure.rotor_axes.sum(axis=0)
    top_tied = sigma[0] - sigma[1] <= TIE_TOL * sigma[0]
    second_tied = (not top_tied) and sigma[1] - sigma[2] <= TIE_TOL * sigma[0]

    if top_tied and sigma[0] - sigma[2] <= TIE_TOL * sigma[0]:
        # fully isotropic thrust capability; keep the structure axes
        return np.eye(3), True

    if top_tied:
        # z free in span{u1, u2}; x is the in-plane complement, y constant
        u1, u2 = u[:, 0], u[:, 1]
        y0 = np.cross(u1, u2)
        best = None
        for s in (1.0, -1.0):
            # trace(t) = z(t).e3 + s*x_perp(t).e1 + s*y0.e2
            #          = a_c cos(t) + b_c sin(t) + const, largest at atan2(b_c, a_c)
            a_c = u1[2] + s * u2[0]
            b_c = u2[2] - s * u1[0]
            t = float(np.arctan2(b_c, a_c))
            for cand_t in (t, t + np.pi):
                z = np.cos(cand_t) * u1 + np.sin(cand_t) * u2
                if np.dot(z, mean_thrust) < 0:
                    continue
                x = s * (-np.sin(cand_t) * u1 + np.cos(cand_t) * u2)
                r = np.column_stack([x, np.cross(z, x), z])
                if best is None or np.trace(r) > np.trace(best):
                    best = r
        if best is None:  # mean thrust orthogonal to the tied plane
            z = _signed(u[:, 0], mean_thrust, geometry.E3)
            x = _signed(u[:, 1], geometry.E1, geometry.E2)
            best = np.column_stack([x, np.cross(z, x), z])
        return best, True

    z = _signed(u[:, 0], mean_thrust, geometry.E3)
    if second_tied:
        # x free in span{u2, u3}: maximize x.e1 + (z cross x).e2
        u2, u3 = u[:, 1], u[:, 2]
        zx2, zx3 = np.cross(z, u2), np.cross(z, u3)
        t = float(np.arctan2(u3[0] + zx3[1], u2[0] + zx2[1]))
        x = np.cos(t) * u2 + np.sin(t) * u3
        return np.column_stack([x, np.cross(z, x), z]), True

    x = _signed(u[:, 1], geometry.E1, geometry.E2)
    return np.column_stack([x, np.cross(z, x), z]), False


def f_frame(a_f, structure):
    """Rotation from the structure frame to its thrust frame."""
    rotation, _ = _f_frame_with_ties(a_f, structure)
    return rotation


def dimensioning_matrix(dof):
    """Row selector reducing the wrench equation to the controllable DOF.

    4 DOF keeps (f_z, torques); 5 DOF adds f_x; 6 DOF keeps everything.
    """
    if dof == 4:
        return np.hstack([np.zeros((4, 2)), np.eye(4)])
    if dof == 5:
        top = np.concatenate([[1.0, 0.0], np.zeros(4)])
        return np.vstack([top, np.hstack([np.zeros((4, 2)), np.eye(4)])])
    if dof == 6:
        return np.eye(6)
    raise InvalidDOF(f"controllable DOF must be 4, 5 or 6, got {dof}")


def design_in_f_frame(a, f_frame_rotation):
    """Re-express the design matrix with force and torque rows in the thrust frame."""
    rt = np.asarray(f_frame_rotation, dtype=float).T
    return np.vstack([rt @ a[:3], rt @ a[3:]])


def bounded_least_squares(a, b, upper, iters=500, tol=0.0):
    """min ||A u - b|| subject to 0 <= u <= upper, by accelerated projected
    gradient descent. Returns (u, residual_norm)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lip = np.linalg.norm(a, 2) ** 2
    if lip == 0.0:
        return np.zeros(a.shape[1]), float(np.linalg.norm(b))
    step = 1.0 / lip
    u = np.zeros(a.shape[1])
    y = u.copy()
    t = 1.0
    for _ in range(iters):
        grad = a.T @ (a @ y - b)
        u_next = np.clip(y - step * grad, 0.0, upper)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = u_next + ((t - 1.0) / t_next) * (u_next - u)
        u, t = u_next, t_next
        if tol > 0.0 and np.linalg.norm(a @ u - b) < tol:
            break
    return u, float(np.linalg.norm(a @ u - b))


def applicability(structure, f_frame_rotation, f_max=DEFAULT_F_MAX):
    """Whether the structure can hover along its thrust axis with
    non-negative, bounded rotor thrusts.

    Two checks: no pair of rotor thrust axes may form an obtuse angle, and
    hovering (weight along the thrust-frame z-axis of `f_frame_rotation`)
    must be reachable with thrusts in [0, f_max].
    """
    axes = structure.rotor_axes
    gram = axes @ axes.T
    if np.min(gram) < -1e-9:
        return False
    target = structure.mass * GRAVITY * f_frame_rotation[:, 2]
    _, residual = bounded_least_squares(structure.design_matrix[:3], target, f_max,
                                        tol=1e-7 * structure.mass * GRAVITY)
    return residual <= 1e-6 * structure.mass * GRAVITY


def analyze_structure(structure, f_max=DEFAULT_F_MAX):
    """Full actuation analysis of an assembled structure."""
    a = structure.design_matrix
    analysis = analyze(a)
    rotation, tie = _f_frame_with_ties(a[:3], structure)
    analysis.f_frame = rotation
    analysis.tie_broken = tie
    analysis.dimensioning = dimensioning_matrix(analysis.controllable_dof)
    analysis.applicable = applicability(structure, rotation, f_max)
    target = structure.mass * GRAVITY * rotation[:, 2]
    _, analysis.hover_residual = bounded_least_squares(
        a[:3], target, f_max, tol=1e-7 * structure.mass * GRAVITY
    )
    return analysis


def hover_wrench(mass, attitude):
    """Body wrench that holds the given attitude static (zero torque)."""
    force = np.asarray(attitude, dtype=float).T @ np.array([0.0, 0.0, mass * GRAVITY])
    return np.concatenate([force, np.zeros(3)])


def static_hover_feasible(structure, attitude, f_max=DEFAULT_F_MAX):
    """Whether bounded thrusts can hold the structure static at `attitude`:
    a residual below 1e-6 of the weight within 2000 solver steps."""
    w = hover_wrench(structure.mass, attitude)
    _, residual = bounded_least_squares(
        structure.design_matrix, w, f_max, iters=2000,
        tol=0.1 * 1e-6 * structure.mass * GRAVITY,
    )
    return residual <= 1e-6 * structure.mass * GRAVITY


def pitch_feasibility_limit(structure, f_max=DEFAULT_F_MAX, angle_tol=1e-4):
    """Largest pitch angle in [0, pi/2] at which a bounded-thrust static
    hover exists.

    Bisects on the pitch angle; assumes feasibility is monotone in pitch,
    which holds for the symmetric structures this is used on.
    """
    lo, hi = 0.0, np.pi / 2
    if not static_hover_feasible(structure, geometry.rot_principal("y", lo), f_max):
        return lo
    if static_hover_feasible(structure, geometry.rot_principal("y", hi), f_max):
        return hi
    while hi - lo > angle_tol:
        mid = 0.5 * (lo + hi)
        if static_hover_feasible(structure, geometry.rot_principal("y", mid), f_max):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
