"""Closed-loop rigid-body simulator with a fixed-step RK4 integrator.

Translation and body rates integrate with classic RK4; the attitude
advances multiplicatively on the rotation group using the midpoint body
rate, and is re-orthonormalized whenever floating-point drift exceeds
1e-9. Motors clamp to [0, f_max] and hold their thrust between control
ticks.

A step does its 3-vector and 3x3 arithmetic on Python floats, which for
one vehicle is several times cheaper than small numpy arrays. Tick records
(states, setpoints) hold floats and tables (rotor arrays, the telemetry
log) are numpy arrays; `run_scenario` reads the caller's state in once.

State feedback is perfect: no sensors, no estimator, no noise. Each control
tick appends one row to a preallocated `telemetry.Telemetry` log.
"""

import itertools
import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from . import geometry
from .control import Controller, desired_attitude
from .errors import InapplicableDesign, InvalidParams, NonFiniteState
from .telemetry import Telemetry
from .vehicle import DEFAULT_F_MAX, GRAVITY

DEFAULT_DT_SIM = 0.001
DEFAULT_DT_CTRL = 0.002

# per-run work bounds; the largest fixture run needs 768,064 tick-rotors and 2 substeps
MAX_TICK_ROTORS = 4_000_000
MAX_SUBSTEPS = 100

_DIVERGENCE_RADIUS = 100.0
_ORTHO_DRIFT_TOL = 1e-9

log = logging.getLogger(__name__)


@dataclass
class VehicleState:
    """World position/velocity, attitude, and body angular velocity, as
    3-lists of floats and the attitude as row-major nested lists."""

    position: list
    velocity: list
    attitude: list
    angular_velocity: list

    @property
    def finite(self):
        return all(map(math.isfinite, itertools.chain(
            self.position, self.velocity, *self.attitude, self.angular_velocity)))


@dataclass
class MotorModel:
    """Per-rotor thrust limit."""

    f_max: float = DEFAULT_F_MAX

    def __post_init__(self):
        if self.f_max <= 0.0:
            raise InvalidParams("f_max must be positive")


def motor_apply(commands, model):
    """Thrusts the motors actually produce for the commanded ones.

    Commands clamp to [0, f_max]. Returns (thrusts, saturated_mask) where
    the mask flags every rotor whose command was cut by the limits.
    """
    commands = np.asarray(commands, dtype=float)
    return (np.minimum(np.maximum(commands, 0.0), model.f_max),
            (commands < 0.0) | (commands > model.f_max))


def accelerations(attitude, omega, force_body, torque_body, structure, gravity):
    """Linear acceleration (world frame) and angular acceleration (body
    frame) of the rigid structure under a body-frame wrench.

    Takes 3-vectors and the 3x3 attitude as any nested sequences and
    returns two lists of floats.
    """
    inertia, inertia_inverse = structure.inertia_floats
    mass = structure.mass
    fx, fy, fz = geometry.matvec3(attitude, force_body)
    gx, gy, gz = geometry.cross3(omega, geometry.matvec3(inertia, omega))
    tx, ty, tz = torque_body
    # torque minus the gyroscopic term omega x (J omega)
    ang_accel = geometry.matvec3(inertia_inverse, (tx - gx, ty - gy, tz - gz))
    return [fx / mass, fy / mass, fz / mass - gravity], ang_accel


def step(state, thrusts, structure, dt, gravity=GRAVITY):
    """One RK4 step with held thrusts.

    The attitude used inside the stages advances by first-order rotation
    from the start-of-step rates; the final attitude applies the midpoint
    body rate over the full step.
    """
    wrench_body = (structure.design_matrix @ np.asarray(thrusts, dtype=float)).tolist()
    force, torque = wrench_body[:3], wrench_body[3:]
    r0, v0, w0 = state.attitude, state.velocity, state.angular_velocity
    r_half = geometry.matmul3(r0, geometry.so3_exp(w0, dt / 2.0).tolist())
    r_full = geometry.matmul3(r0, geometry.so3_exp(w0, dt).tolist())

    # stage i evaluates at velocity v_i and body rate w_i; a_i, b_i are
    # the linear and angular accelerations there
    a1, b1 = accelerations(r0, w0, force, torque, structure, gravity)
    v2, w2 = _advance(v0, dt / 2, a1), _advance(w0, dt / 2, b1)
    a2, b2 = accelerations(r_half, w2, force, torque, structure, gravity)
    v3, w3 = _advance(v0, dt / 2, a2), _advance(w0, dt / 2, b2)
    a3, b3 = accelerations(r_half, w3, force, torque, structure, gravity)
    v4, w4 = _advance(v0, dt, a3), _advance(w0, dt, b3)
    a4, b4 = accelerations(r_full, w4, force, torque, structure, gravity)

    position = _advance(state.position, dt, _rk4_mean(v0, v2, v3, v4))
    velocity = _advance(v0, dt, _rk4_mean(a1, a2, a3, a4))
    omega = _advance(w0, dt, _rk4_mean(b1, b2, b3, b4))
    omega_mid = [0.5 * (w0[0] + omega[0]), 0.5 * (w0[1] + omega[1]),
                 0.5 * (w0[2] + omega[2])]
    attitude = geometry.matmul3(r0, geometry.so3_exp(omega_mid, dt).tolist())
    if geometry.orthonormality_drift(attitude) > _ORTHO_DRIFT_TOL:
        attitude = geometry.orthonormalize(attitude).tolist()
    return VehicleState(position, velocity, attitude, omega)


def _advance(x, h, rate):
    """x + h * rate for 3-vectors."""
    x0, x1, x2 = x
    r0, r1, r2 = rate
    return [x0 + h * r0, x1 + h * r1, x2 + h * r2]


def _rk4_mean(k1, k2, k3, k4):
    """The RK4 weighted mean (k1 + 2 k2 + 2 k3 + k4) / 6 of 3-vectors."""
    return [(k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0,
            (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0,
            (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0]


def initial_state_on_trajectory(trajectory, analysis):
    """State that starts exactly on the reference at t = 0."""
    sp = trajectory(0.0)
    ctl_attitude = desired_attitude(analysis.controllable_dof, sp.attitude,
                                    GRAVITY * geometry.E3 + sp.acceleration)
    attitude = ctl_attitude @ analysis.f_frame.T
    return VehicleState(sp.position, sp.velocity, attitude.tolist(), sp.angular_velocity)


def run_scenario(structure, analysis, gains, trajectory, duration,
                 dt_ctrl=DEFAULT_DT_CTRL, dt_sim=DEFAULT_DT_SIM,
                 motor=None, gravity=GRAVITY, initial_state=None):
    """Simulate the closed loop and log one telemetry row per control tick.

    The controller runs every dt_ctrl (an integer multiple of dt_sim);
    motor thrusts are zero-order-held over the sim sub-steps. Raises
    InvalidParams before any work when the run would exceed MAX_TICK_ROTORS
    (ticks x rotors) or MAX_SUBSTEPS, and NonFiniteState (with the partial
    telemetry attached) when the state leaves a 100 m radius or stops being
    finite.
    """
    if analysis.applicable is False:
        raise InapplicableDesign("structure cannot hover along its thrust axis")
    if not 0.0 < dt_sim <= 0.01:
        raise InvalidParams("dt_sim must lie in (0, 0.01] s")
    substeps = int(round(dt_ctrl / dt_sim))
    if substeps < 1 or abs(dt_ctrl - substeps * dt_sim) > 1e-12:
        raise InvalidParams("dt_ctrl must be an integer multiple of dt_sim")
    if duration < 0.0:
        raise InvalidParams("duration must be non-negative")
    n_ticks = int(round(duration / dt_ctrl))
    if (n_ticks + 1) * structure.n_rotors > MAX_TICK_ROTORS:
        raise InvalidParams(f"{n_ticks + 1:.4g} ticks x {structure.n_rotors} rotors exceed "
                            f"the bound of {MAX_TICK_ROTORS:,} tick-rotors per run")
    if substeps > MAX_SUBSTEPS:
        raise InvalidParams(f"{substeps:.4g} simulation substeps per control tick exceed "
                            f"the bound of {MAX_SUBSTEPS}")
    motor = motor if motor is not None else MotorModel()

    controller = Controller(structure, analysis, gains)
    if initial_state is None:
        initial_state = initial_state_on_trajectory(trajectory, analysis)
    # the caller's state may hold arrays; the loop runs on fresh float lists
    state = VehicleState(*(np.asarray(getattr(initial_state, f.name), dtype=float).tolist()
                           for f in fields(VehicleState)))
    telemetry = Telemetry(structure.n_rotors, n_ticks + 1)
    for tick in range(n_ticks + 1):
        t = tick * dt_ctrl
        sp = trajectory(t)
        u_cmd = controller.step(state, sp, dt=dt_ctrl)
        u_actual, saturated = motor_apply(u_cmd, motor)
        telemetry.append(t, state, sp, u_cmd, u_actual, saturated)
        if tick == n_ticks:
            break
        for _ in range(substeps):
            state = step(state, u_actual, structure, dt_sim, gravity)
        if not state.finite or math.hypot(*state.position) > _DIVERGENCE_RADIUS:
            telemetry.diverged = True
            log.warning("diverged at t = %.3f s: %s", t + dt_ctrl,
                        f"left the {_DIVERGENCE_RADIUS:g} m radius" if state.finite
                        else "non-finite state")
            raise NonFiniteState(
                f"state diverged at t = {t + dt_ctrl:.3f} s", telemetry
            )
    return telemetry
