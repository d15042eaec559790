"""Generalized geometric trajectory-tracking controller for 4/5/6 DOF.

The position loop turns tracking errors into a commanded acceleration.
Every setpoint carries one target attitude of the thrust frame, and the
controller tracks as much of it as the controllable DOF allows: its x-axis
as a heading for a thrust along that acceleration (4 DOF), its x-axis
exactly (5 DOF), or all of it (6 DOF). The attitude loop runs on the
thrust-frame error and the resulting wrench is allocated to rotor thrusts
by pseudo-inverse, which yields the minimum-norm thrust vector.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .actuation import design_in_f_frame
from .errors import DegenerateThrust, GimbalDegenerate, InvalidParams
from .vehicle import GRAVITY

_EPS = 1e-6


@dataclass
class Setpoint:
    """One sample of the reference trajectory. Like every record of the
    closed-loop tick it holds Python floats (3-lists, and `attitude` as
    row-major nested lists); tables such as the telemetry log are numpy
    arrays. `attitude` is the target rotation of the thrust frame in the
    world, whatever the structure's DOF; `desired_attitude` takes from it
    what the structure can track.
    """

    position: list
    velocity: list
    acceleration: list
    attitude: list
    angular_velocity: list = field(default_factory=lambda: [0.0, 0.0, 0.0])


def _diag_gains(values, name, zero_ok=False):
    # three accepted floats, as every config and default gives them, pass
    # without numpy; any other input takes the numpy path and its message
    if type(values) is tuple and len(values) == 3 and all(
            type(v) is float and math.isfinite(v) and (v >= 0.0 if zero_ok else v > 0.0)
            for v in values):
        return values
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 2 and np.array_equal(arr, np.diag(np.diag(arr))):
        arr = np.diag(arr)
    if arr.shape != (3,) or not np.all(np.isfinite(arr) & (arr >= 0.0 if zero_ok else arr > 0.0)):
        kind = "non-negative" if zero_ok else "positive"
        raise InvalidParams(f"{name} must be three finite {kind} gains")
    return tuple(arr.tolist())


@dataclass
class ControllerGains:
    """Diagonal gains for the position and attitude loops.

    k_int defaults to zero; enabling it adds an integral correction on
    position with the accumulator clamped to +-integral_limit (m*s).
    Each gain, three finite floats or a diagonal matrix of them, is
    checked once and kept as a tuple of three floats.
    Field metadata is the config schema, as for the trajectory definitions.
    """

    k_pos: tuple = (6.0, 6.0, 6.0)
    k_vel: tuple = (4.0, 4.0, 4.0)
    k_att: tuple = (10.0, 10.0, 10.0)
    k_omega: tuple = (2.0, 2.0, 2.0)
    k_int: tuple = (0.0, 0.0, 0.0)
    integral_limit: float = field(default=2.0, metadata={"positive": True})

    def __post_init__(self):
        for name in ("k_pos", "k_vel", "k_att", "k_omega", "k_int"):
            setattr(self, name, _diag_gains(getattr(self, name), name, zero_ok=name == "k_int"))
        if not 0.0 < self.integral_limit < math.inf:
            raise InvalidParams("integral_limit must be finite and positive")


def position_accel(pos_error, vel_error, accel_ff, gains, integral=None):
    """Commanded acceleration: PD on position/velocity plus gravity and
    the acceleration feed-forward."""
    kp, kv = gains.k_pos, gains.k_vel
    ep, ev, ff = pos_error, vel_error, accel_ff
    a = [kp[0] * ep[0] + kv[0] * ev[0] + ff[0],
         kp[1] * ep[1] + kv[1] * ev[1] + ff[1],
         kp[2] * ep[2] + kv[2] * ev[2] + GRAVITY + ff[2]]
    if integral is not None:
        ki = gains.k_int
        a = [a[0] + ki[0] * integral[0], a[1] + ki[1] * integral[1],
             a[2] + ki[2] * integral[2]]
    return a


def _unit(v, error, message):
    """The 3-vector v divided by its norm, as a list of floats; raises
    `error` with `message` (formatted with the norm) when that is <= 1e-6."""
    x, y, z = v
    norm = math.hypot(x, y, z)
    if norm <= _EPS:
        raise error(message.format(norm=norm))
    return [x / norm, y / norm, z / norm]


def _columns(x, y, z):
    """3x3 matrix, as nested lists, whose columns are the 3-vectors x, y and z."""
    return [[x[0], y[0], z[0]], [x[1], y[1], z[1]], [x[2], y[2], z[2]]]


def desired_attitude_4dof(accel, heading):
    """Desired attitude whose z-axis carries the commanded acceleration.

    z points along `accel`; x is the heading 3-vector projected onto the
    plane normal to z.
    """
    z = _unit(accel, DegenerateThrust, "|accel| = {norm:.2e}")
    y = _unit(geometry.cross3(z, heading), GimbalDegenerate,
              "thrust direction parallel to heading")
    return _columns(geometry.cross3(y, z), y, z)


def desired_attitude_5dof(accel, x):
    """Desired attitude whose x-axis is the unit 3-vector `x` exactly.

    The commanded acceleration is projected onto the plane spanned by x
    and the resulting z, so the x target is honored while the thrust stays
    as close to `accel` as possible.
    """
    z_c = _unit(accel, DegenerateThrust, "|accel| = {norm:.2e}")
    y = _unit(geometry.cross3(z_c, x), GimbalDegenerate,
              "thrust direction parallel to target x-axis")
    return _columns(x, y, geometry.cross3(x, y))


def desired_attitude(dof, target, accel):
    """Desired thrust-frame attitude of a `dof`-DOF structure for the
    target attitude `target` and the commanded acceleration `accel`: the
    target itself in 6 DOF, else built by `desired_attitude_5dof` or
    `desired_attitude_4dof` from the target's x-axis."""
    if dof == 6:
        return target
    x = [row[0] for row in target]
    return desired_attitude_5dof(accel, x) if dof == 5 else desired_attitude_4dof(accel, x)


def attitude_error(desired, attitude_f, omega, omega_desired):
    """Rotation and rate errors of the thrust frame, as two 3-lists: half
    the vee of m - m^T, and omega - m^T omega_desired, with m = desired^T
    attitude_f.

    `attitude_f` is the thrust frame's attitude in the world: the structure
    attitude times the fixed structure-to-thrust-frame rotation.
    """
    (d00, d01, d02), (d10, d11, d12), (d20, d21, d22) = desired
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = attitude_f
    # m = desired^T attitude_f, each entry summed left to right
    m00 = d00 * a00 + d10 * a10 + d20 * a20
    m01 = d00 * a01 + d10 * a11 + d20 * a21
    m02 = d00 * a02 + d10 * a12 + d20 * a22
    m10 = d01 * a00 + d11 * a10 + d21 * a20
    m11 = d01 * a01 + d11 * a11 + d21 * a21
    m12 = d01 * a02 + d11 * a12 + d21 * a22
    m20 = d02 * a00 + d12 * a10 + d22 * a20
    m21 = d02 * a01 + d12 * a11 + d22 * a21
    m22 = d02 * a02 + d12 * a12 + d22 * a22
    ox, oy, oz = omega
    wx, wy, wz = omega_desired
    e_omega = [ox - (m00 * wx + m10 * wy + m20 * wz),
               oy - (m01 * wx + m11 * wy + m21 * wz),
               oz - (m02 * wx + m12 * wy + m22 * wz)]
    return [0.5 * (m21 - m12), 0.5 * (m02 - m20), 0.5 * (m10 - m01)], e_omega


def attitude_accel(e_rot, e_omega, gains):
    """Commanded angular acceleration from the attitude errors."""
    ka, kw = gains.k_att, gains.k_omega
    return [-ka[0] * e_rot[0] - kw[0] * e_omega[0],
            -ka[1] * e_rot[1] - kw[1] * e_omega[1],
            -ka[2] * e_rot[2] - kw[2] * e_omega[2]]


def wrench(accel, ang_accel, attitude_f, omega, mass, inertia):
    """Desired wrench (force in N, then torque in N*m) in the thrust frame.

    Force is the commanded acceleration rotated into the thrust frame and
    scaled by the mass; torque is the rigid-body torque tracking the
    angular acceleration with the gyroscopic term restored:
    [m R^T a; J alpha + omega x (J omega)], each product summed left to
    right.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = attitude_f
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = inertia
    ax, ay, az = accel
    bx, by, bz = ang_accel
    wx, wy, wz = omega
    # J omega and omega x (J omega) as in `simulation.angular_acceleration`;
    # the two copies keep the same operand order
    hx = j00 * wx + j01 * wy + j02 * wz
    hy = j10 * wx + j11 * wy + j12 * wz
    hz = j20 * wx + j21 * wy + j22 * wz
    return np.array([mass * (r00 * ax + r10 * ay + r20 * az),
                     mass * (r01 * ax + r11 * ay + r21 * az),
                     mass * (r02 * ax + r12 * ay + r22 * az),
                     (j00 * bx + j01 * by + j02 * bz) + (wy * hz - wz * hy),
                     (j10 * bx + j11 * by + j12 * bz) + (wz * hx - wx * hz),
                     (j20 * bx + j21 * by + j22 * bz) + (wx * hy - wy * hx)])


class Controller:
    """Stateful controller bound to one structure and its analysis.

    Holds the integral accumulator and the precomputed allocation
    pseudo-inverse; one instance per simulated vehicle.
    """

    def __init__(self, structure, analysis, gains=None):
        self.structure = structure
        self.analysis = analysis
        self.gains = gains if gains is not None else ControllerGains()
        self.design_f = design_in_f_frame(structure.design_matrix, analysis.f_frame)
        self._rows = analysis.wrench_rows
        self._alloc = np.linalg.pinv(self.design_f[self._rows])
        self._frame = analysis.f_frame.tolist()
        self._integrating = any(k > 0.0 for k in self.gains.k_int)
        self._integral = [0.0, 0.0, 0.0]

    def allocate(self, wrench):
        """Minimum-norm thrusts solving the wrench equation on its kept rows.

        Entries may be negative; clamping to the motor range is the
        simulator's job.
        """
        return self._alloc @ wrench[self._rows]

    def step(self, state, setpoint, dt=None):
        """One control tick: rotor thrust commands before motor limits."""
        (x, y, z), (vx, vy, vz) = state.position, state.velocity
        (x_d, y_d, z_d), (vx_d, vy_d, vz_d) = setpoint.position, setpoint.velocity
        e_pos = [x_d - x, y_d - y, z_d - z]
        e_vel = [vx_d - vx, vy_d - vy, vz_d - vz]
        if dt is not None and self._integrating:
            limit = self.gains.integral_limit
            self._integral = [min(max(i + e * dt, -limit), limit)
                              for i, e in zip(self._integral, e_pos)]
        accel = position_accel(e_pos, e_vel, setpoint.acceleration, self.gains,
                               integral=self._integral)
        desired = desired_attitude(self.analysis.controllable_dof, setpoint.attitude, accel)
        attitude_f = geometry.matmul3(state.attitude, self._frame)
        e_rot, e_omega = attitude_error(desired, attitude_f, state.angular_velocity,
                                        setpoint.angular_velocity)
        ang_accel = attitude_accel(e_rot, e_omega, self.gains)
        w = wrench(accel, ang_accel, attitude_f, state.angular_velocity,
                   self.structure.mass, self.structure.inertia_floats[0])
        return self.allocate(w)
