"""Generalized geometric trajectory-tracking controller for 4/5/6 DOF.

The position loop turns tracking errors into a commanded acceleration;
depending on the controllable DOF the desired attitude is constructed from
that acceleration (4 DOF), from yaw/pitch targets (5 DOF), or taken from
the setpoint (6 DOF). The attitude loop runs on the thrust-frame error and
the resulting wrench is allocated to rotor thrusts by pseudo-inverse,
which yields the minimum-norm thrust vector.
"""

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .actuation import design_in_f_frame
from .errors import DegenerateThrust, GimbalDegenerate, InvalidParams, ModeMismatch
from .geometry import E3, vee
from .vehicle import GRAVITY

_EPS = 1e-6


@dataclass
class Setpoint:
    """One sample of the reference trajectory.

    `mode` is "dof4" (yaw target), "dof5" (yaw and pitch targets) or
    "dof6" (full desired attitude); it must match the structure's
    controllable DOF.
    """

    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    mode: str
    yaw: float = 0.0
    pitch: float = 0.0
    attitude: np.ndarray = None
    angular_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        self.acceleration = np.asarray(self.acceleration, dtype=float)
        self.angular_velocity = np.asarray(self.angular_velocity, dtype=float)
        if self.mode not in ("dof4", "dof5", "dof6"):
            raise InvalidParams(f"unknown setpoint mode {self.mode!r}")
        if self.mode == "dof6" and self.attitude is None:
            raise InvalidParams("dof6 setpoints need a desired attitude")


def _positive_diag(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 2:
        arr = np.diag(arr)
    if arr.shape != (3,) or np.any(arr <= 0.0):
        raise InvalidParams(f"{name} must be three positive gains")
    return arr


@dataclass
class ControllerGains:
    """Diagonal gains for the position and attitude loops.

    k_int defaults to zero; enabling it adds an integral correction on
    position with the accumulator clamped to +-integral_limit (m*s).
    Field metadata is the config schema, as for the trajectory definitions.
    """

    k_pos: np.ndarray = field(default_factory=lambda: np.full(3, 6.0))
    k_vel: np.ndarray = field(default_factory=lambda: np.full(3, 4.0))
    k_att: np.ndarray = field(default_factory=lambda: np.full(3, 10.0))
    k_omega: np.ndarray = field(default_factory=lambda: np.full(3, 2.0))
    k_int: np.ndarray = field(default_factory=lambda: np.zeros(3))
    integral_limit: float = field(default=2.0, metadata={"positive": True})

    def __post_init__(self):
        self.k_pos = _positive_diag(self.k_pos, "k_pos")
        self.k_vel = _positive_diag(self.k_vel, "k_vel")
        self.k_att = _positive_diag(self.k_att, "k_att")
        self.k_omega = _positive_diag(self.k_omega, "k_omega")
        self.k_int = np.asarray(self.k_int, dtype=float)
        if self.k_int.shape != (3,) or np.any(self.k_int < 0.0):
            raise InvalidParams("k_int must be three non-negative gains")


def position_accel(pos_error, vel_error, accel_ff, gains, integral=None):
    """Commanded acceleration: PD on position/velocity plus gravity and
    the acceleration feed-forward."""
    a = (
        gains.k_pos * np.asarray(pos_error, dtype=float)
        + gains.k_vel * np.asarray(vel_error, dtype=float)
        + GRAVITY * E3
        + np.asarray(accel_ff, dtype=float)
    )
    if integral is not None:
        a = a + gains.k_int * integral
    return a


def desired_attitude_4dof(accel, yaw):
    """Desired attitude whose z-axis carries the commanded acceleration.

    z points along `accel`; x is the yaw heading projected onto the plane
    normal to z.
    """
    accel = np.asarray(accel, dtype=float)
    norm = np.linalg.norm(accel)
    if norm <= _EPS:
        raise DegenerateThrust(f"|accel| = {norm:.2e}")
    z = accel / norm
    heading = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    y_raw = geometry.cross3(z, heading)
    y_norm = np.linalg.norm(y_raw)
    if y_norm <= _EPS:
        raise GimbalDegenerate("thrust direction parallel to heading")
    y = y_raw / y_norm
    return np.column_stack([geometry.cross3(y, z), y, z])


def desired_attitude_5dof(accel, yaw, pitch):
    """Desired attitude that tracks yaw and pitch exactly.

    x is the yaw/pitch heading; the commanded acceleration is projected
    onto the plane spanned by x and the resulting z, so the pitch target
    is honored while the thrust stays as close to `accel` as possible.
    """
    accel = np.asarray(accel, dtype=float)
    norm = np.linalg.norm(accel)
    if norm <= _EPS:
        raise DegenerateThrust(f"|accel| = {norm:.2e}")
    z_c = accel / norm
    x = geometry.rot_principal("z", yaw) @ geometry.rot_principal("y", pitch) @ geometry.E1
    y_raw = geometry.cross3(z_c, x)
    y_norm = np.linalg.norm(y_raw)
    if y_norm <= _EPS:
        raise GimbalDegenerate("thrust direction parallel to target x-axis")
    y = y_raw / y_norm
    return np.column_stack([x, y, geometry.cross3(x, y)])


def desired_attitude(setpoint, accel):
    """Desired thrust-frame attitude: built from the commanded acceleration
    for dof4/dof5 setpoints, taken from the setpoint for dof6."""
    if setpoint.mode == "dof4":
        return desired_attitude_4dof(accel, setpoint.yaw)
    if setpoint.mode == "dof5":
        return desired_attitude_5dof(accel, setpoint.yaw, setpoint.pitch)
    return np.asarray(setpoint.attitude, dtype=float)


def attitude_error(desired, attitude, frame_rotation, omega, omega_desired):
    """Rotation and rate errors of the thrust frame.

    `attitude` is the structure attitude in the world, `frame_rotation`
    the fixed structure-to-thrust-frame rotation; the tracked attitude is
    their product.
    """
    r_wf = np.asarray(attitude, dtype=float) @ np.asarray(frame_rotation, dtype=float)
    desired = np.asarray(desired, dtype=float)
    e_rot = 0.5 * vee(desired.T @ r_wf - r_wf.T @ desired)
    e_omega = np.asarray(omega, dtype=float) - r_wf.T @ desired @ np.asarray(
        omega_desired, dtype=float
    )
    return e_rot, e_omega


def attitude_accel(e_rot, e_omega, gains):
    """Commanded angular acceleration from the attitude errors."""
    return -gains.k_att * e_rot - gains.k_omega * e_omega


def wrench(accel, ang_accel, attitude_f, omega, mass, inertia):
    """Desired wrench (force in N, then torque in N*m) in the thrust frame.

    Force is the commanded acceleration rotated into the thrust frame and
    scaled by the mass; torque is the rigid-body torque tracking the
    angular acceleration with the gyroscopic term restored.
    """
    attitude_f = np.asarray(attitude_f, dtype=float)
    omega = np.asarray(omega, dtype=float)
    force = mass * (attitude_f.T @ np.asarray(accel, dtype=float))
    torque = inertia @ np.asarray(ang_accel, dtype=float) + geometry.cross3(
        omega, inertia @ omega
    )
    return np.concatenate([force, torque])


class Controller:
    """Stateful controller bound to one structure and its analysis.

    Holds the integral accumulator and the precomputed allocation
    pseudo-inverse; one instance per simulated vehicle.
    """

    def __init__(self, structure, analysis, gains=None):
        if analysis.f_frame is None or analysis.dimensioning is None:
            raise InvalidParams("analysis must include the thrust frame and row selector")
        self.structure = structure
        self.analysis = analysis
        self.gains = gains if gains is not None else ControllerGains()
        self.design_f = design_in_f_frame(structure.design_matrix, analysis.f_frame)
        self._alloc = np.linalg.pinv(analysis.dimensioning @ self.design_f)
        self._integral = np.zeros(3)

    def reset(self):
        self._integral[:] = 0.0

    def allocate(self, wrench):
        """Minimum-norm thrusts solving the row-reduced wrench equation.

        Entries may be negative; clamping to the motor range is the
        simulator's job.
        """
        return self._alloc @ (self.analysis.dimensioning @ wrench)

    def step(self, state, setpoint, dt=None):
        """One control tick: rotor thrust commands before motor limits."""
        dof = self.analysis.controllable_dof
        if setpoint.mode != f"dof{dof}":
            raise ModeMismatch(
                f"setpoint mode {setpoint.mode!r} on a {dof}-DOF structure"
            )
        e_pos = setpoint.position - state.position
        e_vel = setpoint.velocity - state.velocity
        if dt is not None and np.any(self.gains.k_int > 0.0):
            limit = self.gains.integral_limit
            self._integral = np.clip(self._integral + e_pos * dt, -limit, limit)
        accel = position_accel(e_pos, e_vel, setpoint.acceleration, self.gains,
                               integral=self._integral)
        desired = desired_attitude(setpoint, accel)
        e_rot, e_omega = attitude_error(
            desired, state.attitude, self.analysis.f_frame,
            state.angular_velocity, setpoint.angular_velocity,
        )
        ang_accel = attitude_accel(e_rot, e_omega, self.gains)
        attitude_f = state.attitude @ self.analysis.f_frame
        w = wrench(accel, ang_accel, attitude_f, state.angular_velocity,
                   self.structure.mass, self.structure.inertia)
        return self.allocate(w)
