"""Actuation analysis of a structure: controllable DOF, thrust frame, allocation.

The 6x4n design matrix A splits into force rows (top three) and torque rows
(bottom three), which have rank 3 in a valid structure. The controllable
DOF, 3 + rank(force rows) - (force rows dependent on torque rows), are then
rank(A), in {4, 5, 6} for valid structures. The thrust frame ("F-frame")
is a body-fixed frame whose z-axis points along the direction of maximum
achievable thrust, obtained from the SVD of the force rows; the controller
tracks this frame's attitude.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DegenerateStructure, InvalidDOF, InvalidParams, ModquadError
from .vehicle import DEFAULT_F_MAX, GRAVITY

RANK_TOL = 1e-8
TIE_TOL = 1e-8
_EPS = np.finfo(float).eps
_MAX_PASSES_PER_VARIABLE = 20
_SQUARES_SAFE = (2.0 ** -1000, 2.0 ** 1000)


@dataclass(frozen=True, eq=False)
class ActuationAnalysis:
    """Force-row rank, DOF, thrust frame, kept wrench rows and hover answer of a structure."""

    rank_force: int
    controllable_dof: int  # rank(A); the torque rows always have rank 3
    force_axes: np.ndarray  # U of the force rows: actuation ellipsoid directions
    force_sigma: np.ndarray  # singular values of the force rows: semi-axes (N)
    f_frame: np.ndarray
    wrench_rows: np.ndarray
    applicable: bool
    tie_broken: bool
    hover_residual: float

    @property
    def singular_values(self):
        """Singular values of the force rows, normalized to [0, 1]."""
        sigma = self.force_sigma
        return sigma / sigma[0] if sigma[0] > 0 else sigma


def _numeric_rank(sigma):
    """Number of singular values above RANK_TOL times the largest one."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > RANK_TOL * sigma[0]))


def _signed(v, reference, fallback):
    """Orient v so it has positive projection on reference (or the fallback)."""
    d = float(np.dot(v, reference))
    if abs(d) < 1e-12:
        d = float(np.dot(v, fallback))
    return -v if d < 0 else v


def _f_frame_with_ties(u, sigma, structure):
    """Thrust-frame rotation plus a flag for tie-broken singular values,
    from the SVD (U and singular values) of the force rows.

    Equal singular values leave the SVD axes free inside their subspace;
    among the valid bases we pick the one closest in rotation angle to the
    structure frame (maximum trace), which is a deterministic stand-in for
    choosing axes by hand.
    """
    if _numeric_rank(sigma) <= 1:
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


_WRENCH_ROWS = {4: [2, 3, 4, 5], 5: [0, 2, 3, 4, 5], 6: [0, 1, 2, 3, 4, 5]}


def wrench_rows(dof):
    """Integer array (a tuple would index several axes) of the wrench rows the
    controllable DOF keep: 4 DOF keeps (f_z, torques), 5 DOF adds f_x, 6 DOF
    keeps everything."""
    if dof not in _WRENCH_ROWS:
        raise InvalidDOF(f"controllable DOF must be 4, 5 or 6, got {dof}")
    return np.array(_WRENCH_ROWS[dof])


def design_in_f_frame(a, f_frame_rotation):
    """Re-express the design matrix with force and torque rows in the thrust frame."""
    rt = np.asarray(f_frame_rotation, dtype=float).T
    return np.vstack([rt @ a[:3], rt @ a[3:]])


def _norm(v):
    """Euclidean norm of an array's entries: the square root of their dot
    product, bit for bit as np.linalg.norm computes it, or math.hypot's
    where the squares overflow or underflow. (vdot gives dot's sum, but
    an overflow in it raises no numpy warning.)"""
    entries = v.ravel(order="K")
    squares = float(np.vdot(entries, entries))
    if _SQUARES_SAFE[0] < squares < _SQUARES_SAFE[1]:
        return math.sqrt(squares)
    return math.hypot(*entries.tolist())


def _check_thrust_limit(upper):
    if not 0.0 < upper < math.inf:
        raise InvalidParams(f"thrust limit {upper!r} must be finite and positive")


def bounded_least_squares(a, b, upper):
    """min ||A u - b|| subject to 0 <= u <= upper (a scalar), solved exactly
    by the active-set bounded-variable least squares of Stark & Parker
    (Computational Statistics, 1995). Returns (u, residual_norm).

    Starts from the minimum-norm solution clipped to the box; when nothing
    was clipped, that is the answer. Otherwise the free variables move
    toward their least-squares solution with the others held, stopping at
    the first bound one of them meets (it is held from then on). Once they
    sit at that solution, the held variable whose gradient points furthest
    into the box is freed; when none points in by more than rounding, u is
    the box-constrained minimum. Each freed variable lowers the objective,
    so no free set repeats and the loop ends. Raises InvalidParams unless
    `upper` is finite and positive.
    """
    _check_thrust_limit(upper)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    least_norm = np.linalg.lstsq(a, b, rcond=None)[0]
    u = np.clip(least_norm, 0.0, upper)
    if np.array_equal(u, least_norm):
        return u, _norm(a @ u - b)
    free = (u > 0.0) & (u < upper)
    norm_a = _norm(a)
    # bound on the rounding in the gradient A^T (b - A u): each entry sums
    # m products with entries of b - A u, which each sum n + 1 terms
    tol_per_norm = 2 * (m + n + 1) * _EPS * norm_a
    refused = np.zeros(n, dtype=bool)  # freed, but its step pointed out of the box
    entering, inward = None, 0.0
    passes = _MAX_PASSES_PER_VARIABLE * (n + 1)
    for _ in range(passes):
        if free.any():
            index = np.flatnonzero(free)
            step = np.linalg.lstsq(a[:, index], b - a @ u, rcond=None)[0]
            if entering is not None:
                # rounding can point the freed variable's step out of the box;
                # hold it again and free the next candidate instead
                if inward * step[np.searchsorted(index, entering)] <= 0.0:
                    free[entering] = False
                    refused[entering] = True
                    entering = None
                    continue
                refused[:] = False
                entering = None
            target = u[index] + step
            if target.min() >= 0.0 and target.max() <= upper:
                u[index] = target
            else:
                room = np.full(index.size, np.inf)
                np.divide(upper - u[index], step, out=room, where=step > 0.0)
                np.divide(-u[index], step, out=room, where=step < 0.0)
                alpha = room.min()
                blocked = room <= alpha
                u[index] = np.clip(u[index] + alpha * step, 0.0, upper)
                u[index[blocked]] = np.where(step[blocked] > 0.0, upper, 0.0)
                free[index[blocked]] = False
                continue
        gradient = a.T @ (b - a @ u)
        # held variables sit on a bound; the gradient's component into the box
        push = np.where(u == 0.0, gradient, -gradient)
        push[free | refused] = -np.inf
        entering = int(np.argmax(push))
        # scaled by the iterate's own norm: the box's, upper * sqrt(n), stops
        # the loop short of the minimum when `upper` is large
        if push[entering] <= tol_per_norm * (_norm(b) + norm_a * _norm(u)):
            return u, _norm(a @ u - b)
        free[entering] = True
        inward = 1.0 if u[entering] == 0.0 else -1.0
    raise ModquadError(f"bounded least squares did not settle in {passes} passes")


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
    _, residual = bounded_least_squares(structure.design_matrix[:3], target, f_max)
    return residual <= 1e-6 * structure.mass * GRAVITY


def analyze_structure(structure, f_max=DEFAULT_F_MAX):
    """Full actuation analysis of an assembled structure. A singular value
    counts toward rank above RANK_TOL times the largest one; torque rows of
    rank below 3, which no valid module arrangement has, raise
    DegenerateStructure, and a design matrix of rank below 4 raises
    InvalidDOF with the force and torque rows' scales."""
    a = structure.design_matrix
    force_axes, force_sigma, _ = np.linalg.svd(a[:3])
    rank_total = _numeric_rank(np.linalg.svd(a, compute_uv=False))
    rank_force = _numeric_rank(force_sigma)
    torque_sigma = np.linalg.svd(a[3:], compute_uv=False)
    rank_torque = _numeric_rank(torque_sigma)
    if rank_torque < 3:
        raise DegenerateStructure(f"torque rows have rank {rank_torque} < 3")
    if rank_total < 4:
        raise InvalidDOF(
            f"controllable DOF must be 4, 5 or 6, got {rank_total}: the force rows add "
            f"no singular value above {RANK_TOL:g} times the largest; theirs is "
            f"{force_sigma[0]:.3g} N per N, the torque rows' {torque_sigma[0]:.3g} N m per N "
            f"(arm_m, body_size_m and drag_to_thrust_m set the torque scale)")
    rows = wrench_rows(rank_total)
    rotation, tie = _f_frame_with_ties(force_axes, force_sigma, structure)
    applicable = applicability(structure, rotation, f_max)
    target = structure.mass * GRAVITY * rotation[:, 2]
    _, hover_residual = bounded_least_squares(a[:3], target, f_max)
    return ActuationAnalysis(
        rank_force=rank_force,
        controllable_dof=rank_total,
        force_axes=force_axes,
        force_sigma=force_sigma,
        f_frame=rotation,
        wrench_rows=rows,
        applicable=applicable,
        tie_broken=tie,
        hover_residual=hover_residual,
    )


def hover_wrench(mass, attitude):
    """Body wrench that holds the given attitude static (zero torque)."""
    force = np.asarray(attitude, dtype=float).T @ np.array([0.0, 0.0, mass * GRAVITY])
    return np.concatenate([force, np.zeros(3)])


class HoverEvidence:
    """What earlier hover probes found, for later probes to skip most cold
    solves: the unit residual direction d of the last infeasible one.

    For any unit vector d and any structure, thrusts in the box leave a
    residual of at least d.w - h(d) at a wrench w, where h(d) = f_max sum
    max(0, A^T d) is the support function of the attainable set (Durham,
    JGCD 1993). A probe is infeasible when that bound clears the threshold
    by more than rounding, with d the stored direction, or that of zero
    thrust (w itself) before there is one; otherwise the cold solve
    decides. The cold residual is never below the minimum, so each answer
    is the cold solve's. Feasible answers need the cold solve itself: near
    the threshold, thrusts found another way can land on the other side of
    it by rounding.
    """

    __slots__ = ("direction",)

    def __init__(self):
        self.direction = None

    def dual_bound(self, a, w, f_max):
        """Lower bound d.w - h(d) on the residual at w, and a bound on its
        rounding with a wide margin: each entry of A^T d sums at most n
        products, and |d.w| <= ||w||."""
        norm_w = _norm(w)
        d = w / norm_w if self.direction is None else self.direction
        bound = float(d @ w) - f_max * float(np.maximum(a.T @ d, 0.0).sum())
        scale = norm_w + f_max * float(np.abs(a).sum())
        return bound, 1e3 * _EPS * a.shape[1] * scale

    def decide(self, a, w, f_max, threshold):
        """Whether the residual at w is at most `threshold`, as a cold
        bounded_least_squares answers; an infeasible solve leaves its
        residual direction."""
        _check_thrust_limit(f_max)
        bound, rounding = self.dual_bound(a, w, f_max)
        if bound > threshold + rounding:
            return False
        u, residual = bounded_least_squares(a, w, f_max)
        if residual <= threshold:
            return True
        self.direction = (w - a @ u) / residual
        return False


def static_hover_feasible(structure, attitude, f_max=DEFAULT_F_MAX, evidence=None):
    """Whether bounded thrusts can hold the structure static at `attitude`:
    the exact bounded least-squares residual is below 1e-6 of the weight.

    `evidence`, a HoverEvidence that earlier calls filled in (on any
    structure and thrust limit), gives the same answer, without a solve
    when its dual bound proves the hover infeasible."""
    a = structure.design_matrix
    w = hover_wrench(structure.mass, attitude)
    threshold = 1e-6 * structure.mass * GRAVITY
    if evidence is not None:
        return evidence.decide(a, w, f_max, threshold)
    _, residual = bounded_least_squares(a, w, f_max)
    return residual <= threshold


def pitch_feasibility_limit(structure, f_max=DEFAULT_F_MAX, angle_tol=1e-4):
    """Largest pitch angle in [0, pi/2] at which a bounded-thrust static
    hover exists.

    Bisects on the pitch angle until the bracket is at most `angle_tol`
    (finite and positive, else InvalidParams) wide or no float lies inside
    it; assumes feasibility is monotone in pitch, which holds for the
    symmetric structures this is used on. Each probe after the first hands
    the earlier probes' HoverEvidence to static_hover_feasible, so the
    limit equals that of a bisection of cold solves.
    """
    if not 0.0 < angle_tol < math.inf:
        raise InvalidParams(f"angle_tol {angle_tol!r} must be finite and positive")
    lo, hi = 0.0, np.pi / 2
    if not static_hover_feasible(structure, geometry.rot_principal("y", lo), f_max):
        return lo
    evidence = HoverEvidence()
    if static_hover_feasible(structure, geometry.rot_principal("y", hi), f_max, evidence):
        return hi
    while hi - lo > angle_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if static_hover_feasible(structure, geometry.rot_principal("y", mid), f_max,
                                 evidence):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
