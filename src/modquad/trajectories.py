"""Reference-trajectory generators: helix, rectangle, attitude sine,
hover, and chained quintic segments with analytic derivatives.

Every generator is a pure function of time returning a Setpoint whose
velocity and acceleration are exact derivatives of the position. Its
attitude is a full target rotation of the thrust frame; `make_trajectory`
checks once that the structure's DOF can track what the target asks for.
Each generator converts its own results once, so a Setpoint holds fresh
Python floats and nothing of numpy's scalar types.
"""

import bisect
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import geometry
from .control import Setpoint
from .errors import InvalidParams

TWO_PI = 2.0 * np.pi


def _yaw_pitch_attitude(yaw, pitch):
    """Rz(yaw) Ry(pitch) as nested lists, written out from `math` trig: its
    x-axis is the heading (cos yaw cos pitch, sin yaw cos pitch, -sin pitch)."""
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    cos_p, sin_p = math.cos(pitch), math.sin(pitch)
    return [[cos_y * cos_p, -sin_y, cos_y * sin_p],
            [sin_y * cos_p, cos_y, sin_y * sin_p],
            [-sin_p, 0.0, cos_p]]


# ---------------------------------------------------------------------------
# trajectory definitions (parsed from scenario configs)
# Field metadata is the config schema (see `config`): key unit and positivity;
# `kind` names the definition in a config and `label` in its messages.


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
    label = "a helix trajectory"

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
    label = "a rectangle trajectory"

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
    label = "an attitude_sine trajectory"

    def __post_init__(self):
        if self.period <= 0.0:
            raise InvalidParams("period must be positive")
        if self.axis not in ("x", "y", "z"):
            raise InvalidParams(f"axis must be x, y or z, got {self.axis!r}")


@dataclass(frozen=True)
class Waypoint:
    position: tuple[float, float, float] = field(metadata={"unit": "m"})
    # axis-angle vector of the target attitude in the world
    rotation: tuple = field(default=(0.0, 0.0, 0.0), metadata={"unit": "rad"})


@dataclass(frozen=True)
class QuinticChainDef:
    waypoints: tuple[Waypoint, ...]
    durations: tuple[float, ...] = field(metadata={"unit": "s"})

    kind = "quintic_chain"
    label = "a quintic_chain trajectory"

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise InvalidParams("waypoints must list at least two entries")
        if len(self.durations) != len(self.waypoints) - 1 or min(self.durations) <= 0.0:
            raise InvalidParams("durations_s must hold one positive number per segment")


@dataclass(frozen=True)
class HoverDef:
    point: tuple = field(default=(0.0, 0.0, 0.5), metadata={"unit": "m"})
    yaw: float = field(default=0.0, metadata={"unit": "rad"})
    pitch: float = field(default=0.0, metadata={"unit": "rad"})

    kind = "hover"
    label = "a hover trajectory"


# ---------------------------------------------------------------------------
# generators


def helix(t, defn=HelixDef()):
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
    yaw = (yaw_rate * t + np.pi) % TWO_PI - np.pi  # wrapped into [-pi, pi)
    return Setpoint(pos, vel, acc, _yaw_pitch_attitude(yaw, 0.0), [0.0, 0.0, yaw_rate])


def rectangle(t, defn=RectangleDef()):
    """Rectangle perimeter at constant height with held yaw/pitch targets.

    Each edge is a rest-to-rest quintic taking a quarter of the lap, so
    the lap is periodic and corner velocities vanish.
    """
    half_l, half_w, z = defn.length / 2.0, defn.width / 2.0, defn.height
    corners = [[-half_l, -half_w, z], [half_l, -half_w, z],
               [half_l, half_w, z], [-half_l, half_w, z]]
    edge_time = defn.lap_time / 4.0
    s = math.fmod(t, defn.lap_time)
    edge = min(int(s // edge_time), 3)
    start = corners[edge]
    pos, vel, acc = _rest_to_rest(start, geometry.difference3(corners[(edge + 1) % 4], start),
                                  s - edge * edge_time, edge_time)
    return Setpoint(pos, vel, acc, _yaw_pitch_attitude(defn.yaw_hold, defn.pitch_hold))


def _rest_to_rest(origin, delta, t, duration):
    """Value, rate and acceleration at t (lists of floats) of the move from `origin` by
    `delta` along the minimum-jerk quintic 10 tau^3 - 15 tau^4 + 6 tau^5, tau = t / duration."""
    tau = min(max(t / duration, 0.0), 1.0)
    s = 10 * tau**3 - 15 * tau**4 + 6 * tau**5
    ds = (30 * tau**2 - 60 * tau**3 + 30 * tau**4) / duration
    dds = (60 * tau - 180 * tau**2 + 120 * tau**3) / duration**2
    return ([o + s * d for o, d in zip(origin, delta)], [ds * d for d in delta],
            [dds * d for d in delta])


def attitude_sine(t, defn=AttitudeSineDef()):
    """Hover in place while one attitude angle follows a sine."""
    rate = TWO_PI / defn.period
    angle = defn.amplitude * np.sin(rate * t)
    angle_rate = defn.amplitude * rate * np.cos(rate * t)
    attitude = geometry.rot_principal(defn.axis, angle).tolist()
    omega = [0.0, 0.0, 0.0]
    omega["xyz".index(defn.axis)] = float(angle_rate)
    return Setpoint([float(x) for x in defn.hover_point], [0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0], attitude, omega)


def hover(t, defn=HoverDef()):
    return Setpoint([float(x) for x in defn.point], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                    _yaw_pitch_attitude(defn.yaw, defn.pitch))


# ---------------------------------------------------------------------------
# quintic segments


def _body_rate(phi, phi_rate):
    """Body rate of exp(phi) for the rate `phi_rate` of the axis-angle vector phi:
    the right Jacobian J(phi) phi_rate = phi_rate - a phi x phi_rate + b phi x (phi x phi_rate)."""
    angle = math.hypot(*phi)
    c = geometry.cross3(phi, phi_rate)
    if angle < 1e-8:
        return [r - 0.5 * x for r, x in zip(phi_rate, c)]
    a = (1.0 - math.cos(angle)) / angle**2
    b = (angle - math.sin(angle)) / angle**3
    cc = geometry.cross3(phi, c)
    return [r - a * x + b * y for r, x, y in zip(phi_rate, c, cc)]


class QuinticChain:
    """Rest-to-rest quintic segments through position/attitude waypoints,
    each a `_rest_to_rest` move like a rectangle edge.

    Attitude is `exp` of the interpolated axis-angle vector of the
    waypoints' absolute rotations; adequate for the small excursions flown
    here. Only a 6-DOF structure tracks it.
    """

    def __init__(self, defn):
        # start times; per segment: duration, origin and delta of (position, rotation vector)
        self.starts, self.segments = [0.0], []
        for a, b, duration in zip(defn.waypoints, defn.waypoints[1:], defn.durations):
            origin = [float(x) for x in (*a.position, *a.rotation)]
            delta = [float(x) - o for x, o in zip((*b.position, *b.rotation), origin)]
            self.segments.append((duration, origin, delta))
            self.starts.append(self.starts[-1] + float(duration))

    def __call__(self, t):
        t = min(max(t, 0.0), self.starts[-1])
        index = min(bisect.bisect_right(self.starts, t) - 1, len(self.segments) - 1)
        duration, origin, delta = self.segments[index]
        values, rates, accelerations = _rest_to_rest(
            origin, delta, t - self.starts[index], duration)
        rotvec = values[3:]
        return Setpoint(values[:3], rates[:3], accelerations[:3],
                        geometry.so3_exp(rotvec, 1.0), _body_rate(rotvec, rates[3:]))


# ---------------------------------------------------------------------------
# dispatch


def make_trajectory(defn, dof):
    """Callable t -> Setpoint for a trajectory definition, checked once
    against the controllable DOF of the structure that will fly it: 4 DOF
    holds no pitch target, and only 6 DOF tracks a full attitude path."""
    if defn.kind in ("attitude_sine", "quintic_chain") and dof != 6:
        raise InvalidParams(f"{defn.kind} requires a 6-DOF structure")
    pitch = getattr(defn, "pitch_hold", getattr(defn, "pitch", 0.0))  # rectangle, hover
    if dof == 4 and abs(pitch) > 1e-12:
        raise InvalidParams("4-DOF structures cannot hold a pitch target")
    if defn.kind == "quintic_chain":
        return QuinticChain(defn)
    generators = {"helix": helix, "rectangle": rectangle,
                  "attitude_sine": attitude_sine, "hover": hover}
    if defn.kind not in generators:
        raise InvalidParams(f"unknown trajectory kind {defn.kind!r}")
    return partial(generators[defn.kind], defn=defn)
