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
tick appends one float row, the state, the setpoint and the clamped thrusts,
to a preallocated `telemetry.Telemetry` log. Where a second CPU is free, the
log's finished rows are encoded as CSV text in one forked process while
the vehicle flies (`Telemetry.encoding`); `run_scenario` stops it after
its current quarter block and joins it before it returns or raises.
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

# a flight whose position leaves this distance from the origin (m) has
# diverged; no trajectory may reach past it
DIVERGENCE_RADIUS = 100.0
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
        if not 0.0 < self.f_max < math.inf:
            raise InvalidParams("f_max must be finite and positive")


def motor_apply(commands, model):
    """Thrusts the motors actually produce for the commanded ones: each
    command clamped to [0, f_max], as one float array. A clamped rotor sits
    exactly at 0.0 or f_max, which is what the telemetry's `sat` count
    reads."""
    return np.minimum(np.maximum(commands, 0.0), model.f_max)


def accelerations(attitude, omega, force_body, torque_body, structure, gravity):
    """Linear acceleration (world frame) and angular acceleration (body
    frame) of the rigid structure under a body-frame wrench.

    Takes 3-vectors and the 3x3 attitude as any nested sequences and
    returns two 3-tuples of floats.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = attitude
    fx, fy, fz = force_body
    mass = structure.mass
    # R f / m - g e3; every product below sums its terms left to right
    return (((r00 * fx + r01 * fy + r02 * fz) / mass,
             (r10 * fx + r11 * fy + r12 * fz) / mass,
             (r20 * fx + r21 * fy + r22 * fz) / mass - gravity),
            angular_acceleration(omega, torque_body, structure))


def angular_acceleration(omega, torque_body, structure):
    """The angular part of `accelerations`, which needs no attitude:
    J^-1 (tau - omega x (J omega)), as a 3-tuple of floats."""
    ((j00, j01, j02), (j10, j11, j12), (j20, j21, j22)), \
        ((k00, k01, k02), (k10, k11, k12), (k20, k21, k22)) = structure.inertia_floats
    wx, wy, wz = omega
    hx = j00 * wx + j01 * wy + j02 * wz
    hy = j10 * wx + j11 * wy + j12 * wz
    hz = j20 * wx + j21 * wy + j22 * wz
    tx, ty, tz = torque_body
    # torque minus the gyroscopic term omega x (J omega); `control.wrench`
    # computes J omega and the term with this same operand order
    ux = tx - (wy * hz - wz * hy)
    uy = ty - (wz * hx - wx * hz)
    uz = tz - (wx * hy - wy * hx)
    return (k00 * ux + k01 * uy + k02 * uz,
            k10 * ux + k11 * uy + k12 * uz,
            k20 * ux + k21 * uy + k22 * uz)


def step(state, wrench_body, structure, dt, gravity=GRAVITY):
    """One RK4 step under the body wrench (force, then torque) of the
    thrusts held over the control tick, `design_matrix @ thrusts`.

    The attitude used inside the stages advances by first-order rotation
    from the start-of-step rates; the final attitude applies the midpoint
    body rate over the full step.
    """
    force, torque = wrench_body[:3], wrench_body[3:]
    r0, v0, w0 = state.attitude, state.velocity, state.angular_velocity
    r_half = geometry.matmul3(r0, geometry.so3_exp(w0, dt / 2.0))
    r_full = geometry.matmul3(r0, geometry.so3_exp(w0, dt))

    # stage i evaluates at velocity v_i and body rate w_i; a_i, b_i are
    # the linear and angular accelerations there. Stage 3 shares stage 2's
    # attitude and force, so its linear acceleration is a2. The updates
    # and the weighted means (k1 + 2 k2 + 2 k3 + k4) / 6 are written out
    # per component.
    (px, py, pz), (vx, vy, vz), (wx, wy, wz) = state.position, v0, w0
    h = dt / 2
    (a1x, a1y, a1z), (b1x, b1y, b1z) = accelerations(r0, w0, force, torque, structure, gravity)
    v2x, v2y, v2z = vx + h * a1x, vy + h * a1y, vz + h * a1z
    w2 = (wx + h * b1x, wy + h * b1y, wz + h * b1z)
    (a2x, a2y, a2z), (b2x, b2y, b2z) = accelerations(r_half, w2, force, torque, structure,
                                                     gravity)
    v3x, v3y, v3z = vx + h * a2x, vy + h * a2y, vz + h * a2z
    w3 = (wx + h * b2x, wy + h * b2y, wz + h * b2z)
    b3x, b3y, b3z = angular_acceleration(w3, torque, structure)
    v4x, v4y, v4z = vx + dt * a2x, vy + dt * a2y, vz + dt * a2z
    w4 = (wx + dt * b3x, wy + dt * b3y, wz + dt * b3z)
    (a4x, a4y, a4z), (b4x, b4y, b4z) = accelerations(r_full, w4, force, torque, structure,
                                                     gravity)

    position = [px + dt * ((vx + 2 * v2x + 2 * v3x + v4x) / 6.0),
                py + dt * ((vy + 2 * v2y + 2 * v3y + v4y) / 6.0),
                pz + dt * ((vz + 2 * v2z + 2 * v3z + v4z) / 6.0)]
    velocity = [vx + dt * ((a1x + 2 * a2x + 2 * a2x + a4x) / 6.0),
                vy + dt * ((a1y + 2 * a2y + 2 * a2y + a4y) / 6.0),
                vz + dt * ((a1z + 2 * a2z + 2 * a2z + a4z) / 6.0)]
    ox, oy, oz = (wx + dt * ((b1x + 2 * b2x + 2 * b3x + b4x) / 6.0),
                  wy + dt * ((b1y + 2 * b2y + 2 * b3y + b4y) / 6.0),
                  wz + dt * ((b1z + 2 * b2z + 2 * b3z + b4z) / 6.0))
    omega_mid = (0.5 * (wx + ox), 0.5 * (wy + oy), 0.5 * (wz + oz))
    attitude = geometry.matmul3(r0, geometry.so3_exp(omega_mid, dt))
    if geometry.orthonormality_drift(attitude) > _ORTHO_DRIFT_TOL:
        attitude = geometry.orthonormalize(attitude)
    return VehicleState(position, velocity, attitude, [ox, oy, oz])


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
    InvalidParams before any work on a step or duration that is not finite,
    or when the run would exceed MAX_TICK_ROTORS (ticks x rotors) or
    MAX_SUBSTEPS, and NonFiniteState (with the partial telemetry attached)
    when the state leaves DIVERGENCE_RADIUS or stops being finite. The
    log's encoder, if one was forked, has been joined when it returns or
    raises.
    """
    if not analysis.applicable:
        raise InapplicableDesign("structure cannot hover along its thrust axis")
    if not 0.0 < dt_sim <= 0.01:
        raise InvalidParams("dt_sim must lie in (0, 0.01] s")
    if not 0.0 <= duration < math.inf:
        raise InvalidParams("duration must be finite and non-negative")
    substeps = int(round(dt_ctrl / dt_sim)) if math.isfinite(dt_ctrl) else 0
    if substeps < 1 or abs(dt_ctrl - substeps * dt_sim) > 1e-12:
        raise InvalidParams("dt_ctrl must be an integer multiple of dt_sim")
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
    telemetry = Telemetry(structure.n_rotors, n_ticks + 1, motor.f_max)
    with telemetry.encoding() as offer_rows:
        for tick in range(n_ticks + 1):
            t = tick * dt_ctrl
            sp = trajectory(t)
            u_actual = motor_apply(controller.step(state, sp, dt=dt_ctrl), motor)
            telemetry.append(t, state, sp, u_actual)
            if tick == n_ticks:
                break
            offer_rows()
            wrench_body = (structure.design_matrix @ u_actual).tolist()
            for _ in range(substeps):
                state = step(state, wrench_body, structure, dt_sim, gravity)
            if not state.finite or math.hypot(*state.position) > DIVERGENCE_RADIUS:
                telemetry.diverged = True
                log.warning("diverged at t = %.3f s: %s", t + dt_ctrl,
                            f"left the {DIVERGENCE_RADIUS:g} m radius" if state.finite
                            else "non-finite state")
                raise NonFiniteState(
                    f"state diverged at t = {t + dt_ctrl:.3f} s", telemetry
                )
    return telemetry
