"""Reference-trajectory generators: helix, rectangle, attitude sine,
hover, and chained quintic segments with analytic derivatives.

Every generator is a pure function of time returning a Setpoint whose
velocity and acceleration are exact derivatives of the position, and
whose mode matches the structure's controllable DOF.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .control import Setpoint
from .errors import InvalidParams

TWO_PI = 2.0 * np.pi


def _wrap_angle(a):
    return (a + np.pi) % TWO_PI - np.pi


def _attitude_setpoint(mode, yaw, pitch):
    """Yaw/pitch targets in the representation the controller mode expects."""
    if mode == "dof4":
        if abs(pitch) > 1e-12:
            raise InvalidParams("4-DOF structures cannot hold a pitch target")
        return {"yaw": yaw}
    if mode == "dof5":
        return {"yaw": yaw, "pitch": pitch}
    attitude = geometry.rot_principal("z", yaw) @ geometry.rot_principal("y", pitch)
    return {"yaw": yaw, "pitch": pitch, "attitude": attitude}


# ---------------------------------------------------------------------------
# trajectory definitions (parsed from scenario configs)
# Field metadata is the config schema (see `config`): key unit and positivity.


@dataclass(frozen=True)
class HelixDef:
    center: tuple = field(default=(-0.5, 0.0), metadata={"unit": "m"})
    radius: float = field(default=0.45, metadata={"unit": "m", "positive": True})
    z_min: float = field(default=0.45, metadata={"unit": "m"})
    z_max: float = field(default=0.95, metadata={"unit": "m"})
    z_period: float = field(default=14.0, metadata={"unit": "s", "positive": True})
    xy_period: float = field(default=14.0, metadata={"unit": "s", "positive": True})
    yaw_period: float = field(default=18.0, metadata={"unit": "s", "positive": True})

    kind = "helix"

    def __post_init__(self):
        if min(self.z_period, self.xy_period, self.yaw_period) <= 0.0:
            raise InvalidParams("helix periods must be positive")


@dataclass(frozen=True)
class RectangleDef:
    length: float = field(default=0.8, metadata={"unit": "m", "positive": True})
    width: float = field(default=0.6, metadata={"unit": "m", "positive": True})
    height: float = field(default=0.5, metadata={"unit": "m"})
    lap_time: float = field(default=24.0, metadata={"unit": "s", "positive": True})
    pitch_hold: float = field(default=0.0, metadata={"unit": "rad"})
    yaw_hold: float = field(default=0.0, metadata={"unit": "rad"})

    kind = "rectangle"

    def __post_init__(self):
        if self.lap_time <= 0.0:
            raise InvalidParams("lap_time must be positive")


@dataclass(frozen=True)
class AttitudeSineDef:
    axis: str = "y"
    amplitude: float = field(default=np.radians(20.0), metadata={"unit": "rad"})
    period: float = field(default=90.0, metadata={"unit": "s", "positive": True})
    hover_point: tuple = field(default=(0.0, 0.0, 0.5), metadata={"unit": "m"})

    kind = "attitude_sine"

    def __post_init__(self):
        if self.period <= 0.0:
            raise InvalidParams("period must be positive")
        if self.axis not in ("x", "y", "z"):
            raise InvalidParams(f"axis must be x, y or z, got {self.axis!r}")


@dataclass(frozen=True)
class Waypoint:
    position: tuple
    rotation: tuple = (0.0, 0.0, 0.0)  # axis-angle vector w.r.t. the start


@dataclass(frozen=True)
class QuinticChainDef:
    waypoints: tuple
    durations: tuple

    kind = "quintic_chain"

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise InvalidParams("quintic chain needs at least two waypoints")
        if len(self.durations) != len(self.waypoints) - 1:
            raise InvalidParams("need one duration per segment")
        if any(d <= 0.0 for d in self.durations):
            raise InvalidParams("segment durations must be positive")


@dataclass(frozen=True)
class HoverDef:
    point: tuple = field(default=(0.0, 0.0, 0.5), metadata={"unit": "m"})
    yaw: float = field(default=0.0, metadata={"unit": "rad"})
    pitch: float = field(default=0.0, metadata={"unit": "rad"})

    kind = "hover"


# ---------------------------------------------------------------------------
# generators


def helix(t, defn=HelixDef(), dof=4):
    """Circle in xy, cosine z oscillation, linearly wrapping yaw.

    Phase convention: t = 0 sits at the +x side of the circle with z at
    the bottom of its range.
    """
    w_xy = TWO_PI / defn.xy_period
    w_z = TWO_PI / defn.z_period
    amp = 0.5 * (defn.z_max - defn.z_min)
    cx, cy = defn.center
    cos_xy, sin_xy = math.cos(w_xy * t), math.sin(w_xy * t)
    cos_z, sin_z = math.cos(w_z * t), math.sin(w_z * t)
    pos = [
        cx + defn.radius * cos_xy,
        cy + defn.radius * sin_xy,
        defn.z_min + amp * (1.0 - cos_z),
    ]
    vel = [
        -defn.radius * w_xy * sin_xy,
        defn.radius * w_xy * cos_xy,
        amp * w_z * sin_z,
    ]
    acc = [
        -defn.radius * w_xy**2 * cos_xy,
        -defn.radius * w_xy**2 * sin_xy,
        amp * w_z**2 * cos_z,
    ]
    yaw_rate = TWO_PI / defn.yaw_period
    yaw = _wrap_angle(yaw_rate * t)
    extras = _attitude_setpoint(f"dof{dof}", yaw, 0.0)
    return Setpoint(pos, vel, acc, f"dof{dof}",
                    angular_velocity=[0.0, 0.0, yaw_rate], **extras)


def rectangle(t, defn=RectangleDef(), dof=5):
    """Rectangle perimeter at constant height with held yaw/pitch targets.

    Each edge is a rest-to-rest quintic taking a quarter of the lap, so
    the lap is periodic and corner velocities vanish.
    """
    half_l, half_w, z = defn.length / 2.0, defn.width / 2.0, defn.height
    corners = np.array([
        [-half_l, -half_w, z], [half_l, -half_w, z],
        [half_l, half_w, z], [-half_l, half_w, z],
    ])
    edge_time = defn.lap_time / 4.0
    s = np.fmod(t, defn.lap_time)
    edge = min(int(s // edge_time), 3)
    start = corners[edge]
    pos, vel, acc = _rest_to_rest(start, corners[(edge + 1) % 4] - start,
                                  s - edge * edge_time, edge_time)
    extras = _attitude_setpoint(f"dof{dof}", defn.yaw_hold, defn.pitch_hold)
    return Setpoint(pos, vel, acc, f"dof{dof}", **extras)


def _rest_to_rest(origin, delta, t, duration):
    """Value, rate and acceleration at t of the move from `origin` by `delta`
    along the minimum-jerk quintic 10 tau^3 - 15 tau^4 + 6 tau^5, tau = t / duration."""
    tau = min(max(t / duration, 0.0), 1.0)
    s = 10 * tau**3 - 15 * tau**4 + 6 * tau**5
    ds = (30 * tau**2 - 60 * tau**3 + 30 * tau**4) / duration
    dds = (60 * tau - 180 * tau**2 + 120 * tau**3) / duration**2
    return origin + s * delta, ds * delta, dds * delta


def attitude_sine(t, defn=AttitudeSineDef()):
    """Hover in place while one attitude angle follows a sine."""
    rate = TWO_PI / defn.period
    angle = defn.amplitude * np.sin(rate * t)
    angle_rate = defn.amplitude * rate * np.cos(rate * t)
    attitude = geometry.rot_principal(defn.axis, angle)
    axis_index = "xyz".index(defn.axis)
    omega = np.zeros(3)
    omega[axis_index] = angle_rate
    yaw = angle if defn.axis == "z" else 0.0
    pitch = angle if defn.axis == "y" else 0.0
    return Setpoint(np.asarray(defn.hover_point, dtype=float), np.zeros(3),
                    np.zeros(3), "dof6", yaw=yaw, pitch=pitch,
                    attitude=attitude, angular_velocity=omega)


def hover(t, defn=HoverDef(), dof=6):
    extras = _attitude_setpoint(f"dof{dof}", defn.yaw, defn.pitch)
    return Setpoint(np.asarray(defn.point, dtype=float), np.zeros(3),
                    np.zeros(3), f"dof{dof}", **extras)


# ---------------------------------------------------------------------------
# quintic segments


def _so3_right_jacobian(phi):
    """Maps the derivative of an axis-angle vector to the body rate."""
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi)
    p = geometry.hat(phi)
    if angle < 1e-8:
        return np.eye(3) - 0.5 * p
    return (
        np.eye(3)
        - ((1.0 - np.cos(angle)) / angle**2) * p
        + ((angle - np.sin(angle)) / angle**3) * (p @ p)
    )


class QuinticChain:
    """Rest-to-rest quintic segments through position/attitude waypoints,
    each a `_rest_to_rest` move like a rectangle edge.

    Attitude interpolates the axis-angle vector of the desired attitude
    relative to the start; adequate for the small excursions flown here.
    Produces 6-DOF setpoints.
    """

    def __init__(self, defn):
        self.starts = np.concatenate([[0.0], np.cumsum(defn.durations)])
        # per segment: duration, origin and delta of (position, rotation vector)
        self.segments = []
        for a, b, duration in zip(defn.waypoints, defn.waypoints[1:], defn.durations):
            origin = np.array([*a.position, *a.rotation], dtype=float)
            delta = np.array([*b.position, *b.rotation], dtype=float) - origin
            self.segments.append((duration, origin, delta))

    def __call__(self, t):
        t = min(max(t, 0.0), self.starts[-1])
        index = min(np.searchsorted(self.starts, t, side="right") - 1,
                    len(self.segments) - 1)
        duration, origin, delta = self.segments[index]
        values, rates, accelerations = _rest_to_rest(
            origin, delta, t - self.starts[index], duration)
        rotvec = values[3:]
        attitude = geometry.so3_exp(rotvec, 1.0)
        omega = _so3_right_jacobian(rotvec) @ rates[3:]
        yaw, pitch = geometry.yaw_pitch(attitude)
        return Setpoint(values[:3], rates[:3], accelerations[:3], "dof6",
                        yaw=yaw, pitch=pitch, attitude=attitude,
                        angular_velocity=omega)


# ---------------------------------------------------------------------------
# dispatch


def make_trajectory(defn, dof):
    """Callable t -> Setpoint for a trajectory definition, in the setpoint
    mode matching the structure's controllable DOF."""
    if defn.kind == "helix":
        return lambda t: helix(t, defn, dof)
    if defn.kind == "rectangle":
        return lambda t: rectangle(t, defn, dof)
    if defn.kind == "attitude_sine":
        if dof != 6:
            raise InvalidParams("attitude_sine requires a 6-DOF structure")
        return lambda t: attitude_sine(t, defn)
    if defn.kind == "quintic_chain":
        if dof != 6:
            raise InvalidParams("quintic_chain requires a 6-DOF structure")
        return QuinticChain(defn)
    if defn.kind == "hover":
        return lambda t: hover(t, defn, dof)
    raise InvalidParams(f"unknown trajectory kind {defn.kind!r}")
