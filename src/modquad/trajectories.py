"""Reference trajectories: helix, rectangle, attitude sine, hover, and
chained quintic segments with analytic derivatives.

Each kind is one frozen dataclass whose fields are the config schema;
`Trajectory` is their union. Called at time t, a definition returns a
Setpoint of fresh Python floats: velocity and acceleration are exact
derivatives of the position, and the attitude is a full target rotation
of the thrust frame. A kind is checked when built: a time scale or
rotation whose per-tick arithmetic would overflow or divide by zero raises
InvalidParams. `make_trajectory` checks once what the target asks
of the structure's DOF (each kind's `full_attitude` and `pitch`).
"""

import bisect
import math
from dataclasses import dataclass, field, fields

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


def _rest_to_rest(t, duration):
    """Progress s in [0, 1] at t along the minimum-jerk quintic 10 tau^3 - 15 tau^4 + 6 tau^5,
    tau = t / duration, with its rate and acceleration: a move from o by d is o + s d."""
    tau = min(max(t / duration, 0.0), 1.0)
    return (10 * tau**3 - 15 * tau**4 + 6 * tau**5,
            (30 * tau**2 - 60 * tau**3 + 30 * tau**4) / duration,
            (60 * tau - 180 * tau**2 + 120 * tau**3) / duration**2)


def _body_rate(phi, phi_rate):
    """Body rate of exp(phi) for the rate `phi_rate` of the axis-angle vector phi:
    the right Jacobian J(phi) phi_rate = phi_rate - a phi x phi_rate + b phi x (phi x phi_rate)."""
    px, py, pz = phi
    rx, ry, rz = phi_rate
    cx, cy, cz = py * rz - pz * ry, pz * rx - px * rz, px * ry - py * rx  # phi x phi_rate
    angle = math.hypot(px, py, pz)
    if angle < 1e-8:
        return [rx - 0.5 * cx, ry - 0.5 * cy, rz - 0.5 * cz]
    a = (1.0 - math.cos(angle)) / angle**2
    b = (angle - math.sin(angle)) / angle**3
    return [rx - a * cx + b * (py * cz - pz * cy),
            ry - a * cy + b * (pz * cx - px * cz),
            rz - a * cz + b * (px * cy - py * cx)]


def _check_finite(key, condition, evaluate, *args):
    """Raise InvalidParams naming the config key `key` unless `evaluate(*args)`,
    arithmetic that a trajectory repeats at every tick, gives finite floats."""
    try:
        finite = all(map(math.isfinite, evaluate(*args)))
    except (ArithmeticError, ValueError):  # OverflowError, ZeroDivisionError, math domain
        finite = False
    if not finite:
        raise InvalidParams(f"{key} is out of range: {condition}")


# ---------------------------------------------------------------------------
# trajectory kinds (parsed from scenario configs)
# Field metadata is the config schema (see `config`): key unit and positivity;
# `kind` names the definition in a config and `label` in its messages.


class _Kind:
    """Base of every kind: checks its positive fields; by default no pitch, no 6 DOF."""

    full_attitude = False  # the target turns freely, so only 6 DOF tracks it
    pitch = 0.0  # held pitch target (rad); 4 DOF holds none

    def __post_init__(self):
        for f in fields(self):
            if f.metadata.get("positive") and not getattr(self, f.name) > 0.0:
                raise InvalidParams(f"{f.name} must be positive")


@dataclass(frozen=True)
class HelixDef(_Kind):
    """Circle in xy, cosine z oscillation, linearly wrapping yaw.

    Phase convention: t = 0 sits at the +x side of the circle with z at
    the bottom of its range.
    """

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
        super().__post_init__()
        for name in ("xy_period", "z_period"):
            _check_finite(f"{name}_s", f"(2 pi / {name}_s)**2 must be finite",
                          lambda period: [(TWO_PI / period)**2], getattr(self, name))

    def __call__(self, t):
        w_xy = TWO_PI / self.xy_period
        w_z = TWO_PI / self.z_period
        amp = 0.5 * (self.z_max - self.z_min)
        cx, cy = self.center
        cos_xy, sin_xy = math.cos(w_xy * t), math.sin(w_xy * t)
        cos_z, sin_z = math.cos(w_z * t), math.sin(w_z * t)
        pos = [
            cx + self.radius * cos_xy,
            cy + self.radius * sin_xy,
            self.z_min + amp * (1.0 - cos_z),
        ]
        vel = [
            -self.radius * w_xy * sin_xy,
            self.radius * w_xy * cos_xy,
            amp * w_z * sin_z,
        ]
        acc = [
            -self.radius * w_xy**2 * cos_xy,
            -self.radius * w_xy**2 * sin_xy,
            amp * w_z**2 * cos_z,
        ]
        yaw_rate = TWO_PI / self.yaw_period
        yaw = (yaw_rate * t + np.pi) % TWO_PI - np.pi  # wrapped into [-pi, pi)
        return Setpoint(pos, vel, acc, _yaw_pitch_attitude(yaw, 0.0), [0.0, 0.0, yaw_rate])


@dataclass(frozen=True)
class RectangleDef(_Kind):
    """Rectangle perimeter at constant height with held yaw/pitch targets.

    Each edge is a rest-to-rest quintic taking a quarter of the lap, so
    the lap is periodic and corner velocities vanish.
    """

    length: float = field(default=0.8, metadata={"unit": "m", "positive": True})
    width: float = field(default=0.6, metadata={"unit": "m", "positive": True})
    height: float = field(default=0.5, metadata={"unit": "m"})
    lap_time: float = field(default=24.0, metadata={"unit": "s", "positive": True})
    pitch_hold: float = field(default=0.0, metadata={"unit": "rad"})
    yaw_hold: float = field(default=0.0, metadata={"unit": "rad"})

    kind = "rectangle"
    label = "a rectangle trajectory"
    pitch = property(lambda self: self.pitch_hold)

    def __post_init__(self):
        super().__post_init__()
        _check_finite("lap_time_s", "(lap_time_s / 4)**2 must be finite and non-zero",
                      _rest_to_rest, 0.0, self.lap_time / 4.0)

    def __call__(self, t):
        half_l, half_w, z = self.length / 2.0, self.width / 2.0, self.height
        corners = [[-half_l, -half_w, z], [half_l, -half_w, z],
                   [half_l, half_w, z], [-half_l, half_w, z]]
        edge_time = self.lap_time / 4.0
        s = math.fmod(t, self.lap_time)
        edge = min(int(s // edge_time), 3)
        (x, y, z), (x_next, y_next, z_next) = corners[edge], corners[(edge + 1) % 4]
        dx, dy, dz = x_next - x, y_next - y, z_next - z
        p, dp, ddp = _rest_to_rest(s - edge * edge_time, edge_time)
        return Setpoint([x + p * dx, y + p * dy, z + p * dz], [dp * dx, dp * dy, dp * dz],
                        [ddp * dx, ddp * dy, ddp * dz],
                        _yaw_pitch_attitude(self.yaw_hold, self.pitch_hold))


@dataclass(frozen=True)
class AttitudeSineDef(_Kind):
    """Hover in place while one attitude angle follows a sine."""

    axis: str = "y"
    amplitude: float = field(default=np.radians(20.0), metadata={"unit": "rad"})
    period: float = field(default=90.0, metadata={"unit": "s", "positive": True})
    hover_point: tuple = field(default=(0.0, 0.0, 0.5), metadata={"unit": "m"})

    kind = "attitude_sine"
    label = "an attitude_sine trajectory"
    full_attitude = True

    def __post_init__(self):
        super().__post_init__()
        if self.axis not in ("x", "y", "z"):
            raise InvalidParams(f"axis must be x, y or z, got {self.axis!r}")

    def __call__(self, t):
        rate = TWO_PI / self.period
        angle = self.amplitude * np.sin(rate * t)
        angle_rate = self.amplitude * rate * np.cos(rate * t)
        attitude = geometry.rot_principal(self.axis, angle).tolist()
        omega = [0.0, 0.0, 0.0]
        omega["xyz".index(self.axis)] = float(angle_rate)
        return Setpoint([float(x) for x in self.hover_point], [0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0], attitude, omega)


@dataclass(frozen=True)
class Waypoint:
    position: tuple[float, float, float] = field(metadata={"unit": "m"})
    # axis-angle vector of the target attitude in the world
    rotation: tuple = field(default=(0.0, 0.0, 0.0), metadata={"unit": "rad"})

    def __post_init__(self):
        if len(self.rotation) != 3:
            raise InvalidParams(f"rotation_rad must hold 3 angles, not {len(self.rotation)}")
        _check_finite("rotation_rad", "its angle cubed must be finite",
                      _body_rate, self.rotation, (0.0, 0.0, 0.0))


@dataclass(frozen=True)
class QuinticChainDef(_Kind):
    """Rest-to-rest quintic segments through position/attitude waypoints,
    each a `_rest_to_rest` move like a rectangle edge.

    Attitude is `exp` of the interpolated axis-angle vector of the
    waypoints' absolute rotations; adequate for the small excursions flown
    here.
    """

    waypoints: tuple[Waypoint, ...]
    durations: tuple[float, ...] = field(metadata={"unit": "s"})

    kind = "quintic_chain"
    label = "a quintic_chain trajectory"
    full_attitude = True

    def __post_init__(self):
        super().__post_init__()
        if len(self.waypoints) < 2:
            raise InvalidParams("waypoints must list at least two entries")
        if (len(self.durations) != len(self.waypoints) - 1
                or not all(d > 0.0 for d in self.durations)):
            raise InvalidParams("durations_s must hold one positive number per segment")
        for i, duration in enumerate(self.durations):
            _check_finite(f"durations_s[{i}]", "its square must be finite and non-zero",
                          _rest_to_rest, 0.0, duration)
        # start times; per segment: duration, origin and delta of (position, rotvec)
        starts, segments = [0.0], []
        for a, b, duration in zip(self.waypoints, self.waypoints[1:], self.durations):
            origin = [float(x) for x in (*a.position, *a.rotation)]
            delta = [float(x) - o for x, o in zip((*b.position, *b.rotation), origin)]
            segments.append((duration, origin, delta))
            starts.append(starts[-1] + float(duration))
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_segments", segments)

    def __call__(self, t):
        t = min(max(t, 0.0), self._starts[-1])
        index = min(bisect.bisect_right(self._starts, t) - 1, len(self._segments) - 1)
        duration, (x, y, z, ax, ay, az), (dx, dy, dz, dax, day, daz) = self._segments[index]
        s, ds, dds = _rest_to_rest(t - self._starts[index], duration)
        rotvec = (ax + s * dax, ay + s * day, az + s * daz)
        return Setpoint([x + s * dx, y + s * dy, z + s * dz], [ds * dx, ds * dy, ds * dz],
                        [dds * dx, dds * dy, dds * dz], geometry.so3_exp(rotvec, 1.0),
                        _body_rate(rotvec, (ds * dax, ds * day, ds * daz)))


@dataclass(frozen=True)
class HoverDef(_Kind):
    point: tuple = field(default=(0.0, 0.0, 0.5), metadata={"unit": "m"})
    yaw: float = field(default=0.0, metadata={"unit": "rad"})
    pitch: float = field(default=0.0, metadata={"unit": "rad"})

    kind = "hover"
    label = "a hover trajectory"

    def __call__(self, t):
        return Setpoint([float(x) for x in self.point], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                        _yaw_pitch_attitude(self.yaw, self.pitch))


Trajectory = HelixDef | RectangleDef | AttitudeSineDef | QuinticChainDef | HoverDef


def make_trajectory(defn, dof):
    """The trajectory `defn` (a callable t -> Setpoint), checked once against
    the controllable DOF of the structure that will fly it: 4 DOF holds no
    pitch target, and only 6 DOF tracks a full attitude path."""
    if defn.full_attitude and dof != 6:
        raise InvalidParams(f"{defn.kind} requires a 6-DOF structure")
    if dof == 4 and abs(defn.pitch) > 1e-12:
        raise InvalidParams("4-DOF structures cannot hold a pitch target")
    return defn
