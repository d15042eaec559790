import dataclasses
import itertools
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modquad import geometry, simulation, trajectories
from modquad.errors import InvalidParams
from modquad.trajectories import (
    AttitudeSineDef,
    HelixDef,
    HoverDef,
    QuinticChainDef,
    RectangleDef,
    Waypoint,
)


def yaw_of(sp):
    return geometry.yaw_pitch(sp.attitude)[0]


def pitch_of(sp):
    return geometry.yaw_pitch(sp.attitude)[1]


def test_helix_start_point():
    sp = HelixDef()(0.0)
    assert np.allclose(sp.position, [-0.05, 0.0, 0.45])
    assert yaw_of(sp) == 0.0


def test_helix_z_range_endpoints():
    defn = HelixDef()
    assert defn(7.0).position[2] == pytest.approx(0.95)
    assert defn(14.0).position[2] == pytest.approx(0.45)


def test_helix_yaw_wraps_after_full_cycle():
    defn = HelixDef()
    assert yaw_of(defn(18.0)) == pytest.approx(yaw_of(defn(0.0)), abs=1e-9)


def test_helix_stays_on_cylinder():
    defn = HelixDef()
    for t in np.linspace(0.0, 30.0, 200):
        sp = defn(t)
        radial = np.linalg.norm(sp.position[:2] - np.array(defn.center))
        assert radial == pytest.approx(defn.radius, abs=1e-12)


def test_rectangle_starts_at_first_corner():
    defn = RectangleDef(pitch_hold=np.radians(-5.0))
    sp = defn(0.0)
    assert np.allclose(sp.position, [-0.4, -0.3, defn.height])
    assert pitch_of(sp) == pytest.approx(np.radians(-5.0))
    assert np.allclose(sp.attitude, geometry.rot_principal("y", np.radians(-5.0)))


def test_rectangle_holds_pitch_everywhere():
    defn = RectangleDef(pitch_hold=np.radians(-5.0))
    for t in np.linspace(0.0, defn.lap_time, 50):
        assert pitch_of(defn(t)) == pytest.approx(np.radians(-5.0))


def test_rectangle_periodic():
    defn = RectangleDef()
    start = np.asarray(defn(0.0).position)
    end = np.asarray(defn(defn.lap_time).position)
    assert np.max(np.abs(end - start)) < 1e-9


def test_rectangle_corner_velocities_vanish():
    defn = RectangleDef()
    for k in range(4):
        sp = defn(k * defn.lap_time / 4.0)
        assert np.allclose(sp.velocity, 0.0, atol=1e-12)


def test_rectangle_dof4_rejects_pitch_target():
    with pytest.raises(InvalidParams):
        trajectories.make_trajectory(RectangleDef(pitch_hold=0.1), 4)


def test_attitude_sine_zero_crossing():
    sp = AttitudeSineDef()(0.0)
    assert np.allclose(sp.attitude, np.eye(3))
    assert np.allclose(sp.position, AttitudeSineDef().hover_point)


def test_attitude_sine_quarter_period_peak():
    defn = AttitudeSineDef()
    sp = defn(22.5)
    assert pitch_of(sp) == pytest.approx(np.radians(20.0))
    assert np.allclose(sp.attitude, geometry.rot_principal("y", np.radians(20.0)))
    assert np.allclose(sp.angular_velocity, 0.0, atol=1e-12)


def test_attitude_sine_half_period():
    sp = AttitudeSineDef()(45.0)
    assert pitch_of(sp) == pytest.approx(0.0, abs=1e-12)


def chain_def():
    return QuinticChainDef(
        waypoints=(
            Waypoint((0.0, 0.0, 0.5)),
            Waypoint((0.4, 0.2, 0.8), (0.0, np.radians(12.0), 0.0)),
            Waypoint((0.0, 0.0, 0.5)),
        ),
        durations=(8.0, 8.0),
    )


def test_quintic_chain_hits_waypoints():
    chain = chain_def()
    sp0 = chain(0.0)
    assert np.allclose(sp0.position, [0.0, 0.0, 0.5])
    assert np.allclose(sp0.attitude, np.eye(3))
    sp1 = chain(8.0)
    assert np.allclose(sp1.position, [0.4, 0.2, 0.8])
    assert np.allclose(sp1.attitude, geometry.rot_principal("y", np.radians(12.0)))
    assert pitch_of(sp1) == pytest.approx(np.radians(12.0))
    sp2 = chain(16.0)
    assert np.allclose(sp2.position, [0.0, 0.0, 0.5])


def test_quintic_chain_rest_at_waypoints():
    chain = chain_def()
    for t in (0.0, 8.0, 16.0):
        sp = chain(t)
        assert np.allclose(sp.velocity, 0.0, atol=1e-9)
        assert np.allclose(sp.angular_velocity, 0.0, atol=1e-9)


def test_quintic_chain_mid_segment():
    defn = chain_def()
    for k, duration in enumerate(defn.durations):
        a = np.array(defn.waypoints[k].position)
        b = np.array(defn.waypoints[k + 1].position)
        sp = defn(sum(defn.durations[:k]) + duration / 2.0)
        assert np.allclose(sp.position, 0.5 * (a + b), atol=1e-12)
        assert np.allclose(sp.velocity, 15.0 * (b - a) / (8.0 * duration), atol=1e-12)
        assert np.allclose(sp.acceleration, 0.0, atol=1e-12)


def test_quintic_chain_equal_waypoints_hold_still():
    rotation = (0.0, np.radians(10.0), 0.0)
    chain = QuinticChainDef(
        waypoints=(Waypoint((0.3, -0.1, 0.6), rotation),
                   Waypoint((0.3, -0.1, 0.6), rotation)),
        durations=(2.0,))
    first = chain(0.0)
    for t in np.linspace(0.0, 2.5, 11):
        sp = chain(t)
        assert np.array_equal(sp.position, first.position)
        assert np.array_equal(sp.attitude, first.attitude)
        assert not np.any(sp.velocity) and not np.any(sp.acceleration)
        assert not np.any(sp.angular_velocity)
    assert np.allclose(first.position, [0.3, -0.1, 0.6])
    assert np.allclose(first.attitude, geometry.rot_principal("y", np.radians(10.0)))


def test_chain_requires_matching_durations():
    for durations in [(1.0, 2.0), (0.0,), (-1.0,), (math.nan,)]:
        with pytest.raises(InvalidParams):
            QuinticChainDef(waypoints=(Waypoint((0, 0, 0)), Waypoint((1, 0, 0))),
                            durations=durations)


@pytest.mark.parametrize("factory", [
    lambda t: HelixDef()(t),
    lambda t: RectangleDef()(t + 0.5),
    lambda t: chain_def()(t + 1.0),
])
def test_derivatives_consistent_with_finite_differences(factory):
    h = 1e-4
    for t in np.linspace(0.2, 5.0, 7):
        before, at, after = factory(t - h), factory(t), factory(t + h)
        vel_fd = (np.asarray(after.position) - before.position) / (2 * h)
        acc_fd = (np.asarray(after.position) - 2 * np.asarray(at.position)
                  + before.position) / h**2
        scale_v = max(1.0, np.linalg.norm(at.velocity))
        scale_a = max(1.0, np.linalg.norm(at.acceleration))
        assert np.linalg.norm(vel_fd - at.velocity) / scale_v < 1e-4
        assert np.linalg.norm(acc_fd - at.acceleration) / scale_a < 1e-4


def test_attitude_sine_rate_consistent_with_finite_differences():
    defn = AttitudeSineDef()
    h = 1e-5
    for t in (3.0, 20.0, 40.0):
        r0 = np.asarray(defn(t - h).attitude)
        r1 = np.asarray(defn(t + h).attitude)
        sp = defn(t)
        omega_fd = geometry.vee(np.asarray(sp.attitude).T @ ((r1 - r0) / (2 * h)))
        assert np.allclose(omega_fd, sp.angular_velocity, atol=1e-6)


def test_multi_axis_chain_rate_consistent_with_finite_differences():
    # waypoints rotate about all three axes, so the rotation vector and its
    # rate are not parallel and every term of the right Jacobian counts
    chain = QuinticChainDef(
        waypoints=(
            Waypoint((0.0, 0.0, 0.5), (0.1, -0.05, 0.2)),
            Waypoint((0.4, 0.2, 0.8), (-0.15, 0.25, 0.35)),
            Waypoint((0.0, 0.0, 0.5), (0.3, 0.1, -0.4)),
        ),
        durations=(8.0, 6.0),
    )
    h = 1e-5
    for t in (1.0, 3.7, 6.2, 9.5, 12.0):
        r0 = np.asarray(chain(t - h).attitude)
        r1 = np.asarray(chain(t + h).attitude)
        sp = chain(t)
        omega_fd = geometry.vee(np.asarray(sp.attitude).T @ ((r1 - r0) / (2 * h)))
        assert np.max(np.abs(np.subtract(omega_fd, sp.angular_velocity))) < 1e-9


def right_jacobian_matrix(phi):
    """The right Jacobian of SO(3) at the rotation vector phi, as a matrix."""
    angle = np.linalg.norm(phi)
    p = geometry.hat(phi)
    if angle < 1e-8:
        return np.eye(3) - 0.5 * p
    return (np.eye(3) - ((1.0 - math.cos(angle)) / angle**2) * p
            + ((angle - math.sin(angle)) / angle**3) * (p @ p))


components = st.floats(-1.5, 1.5)


@settings(max_examples=500, deadline=None)
@given(phi=st.tuples(components, components, components),
       scale=st.sampled_from([1.0, 1e-3, 1e-8, 1e-10, 0.0]),
       rate=st.tuples(components, components, components))
def test_body_rate_matches_right_jacobian_matrix(phi, scale, rate):
    # scales below 1e-8 reach the small-angle branch
    phi = [scale * x for x in phi]
    got = trajectories._body_rate(phi, list(rate))
    want = right_jacobian_matrix(np.array(phi)) @ rate
    assert np.linalg.norm(np.subtract(got, want)) <= 1e-12 * np.linalg.norm(want)


KINDS = typing.get_args(trajectories.Trajectory)
# every kind, with the pitched rectangle and hover next to their level defaults
DEFINITIONS = [HelixDef(), RectangleDef(), RectangleDef(pitch_hold=0.1), AttitudeSineDef(),
               HoverDef(), HoverDef(pitch=-0.2), chain_def()]


def assert_python_floats(generator):
    # an np.float64 here would slow every tick's float arithmetic
    for t in (0.0, 1.3, 7.9, 100.0):
        sp = generator(t)
        scalars = [*sp.position, *sp.velocity, *sp.acceleration, *sp.angular_velocity,
                   *itertools.chain.from_iterable(sp.attitude)]
        assert len(scalars) == 21 and len(sp.attitude) == 3
        assert all(type(x) is float for x in scalars)


@pytest.mark.parametrize("generator", [
    lambda t: HelixDef()(t),
    lambda t: RectangleDef(pitch_hold=0.1)(t),
    lambda t: AttitudeSineDef()(t),
    lambda t: HoverDef(point=(0, 0, 1), yaw=0.3)(t),
    lambda t: chain_def()(t),
])
def test_setpoints_hold_python_floats(generator):
    assert_python_floats(generator)


def test_make_trajectory_mode_checks():
    with pytest.raises(InvalidParams):
        trajectories.make_trajectory(AttitudeSineDef(), dof=4)
    traj = trajectories.make_trajectory(HelixDef(), dof=4)
    assert np.allclose(traj(0.3).attitude,
                       geometry.rot_principal("z", 2 * np.pi * 0.3 / HelixDef().yaw_period))


@pytest.mark.parametrize("defn, dof", [
    (AttitudeSineDef(), 4), (AttitudeSineDef(), 5), (chain_def(), 4), (chain_def(), 5),
    (RectangleDef(pitch_hold=0.1), 4), (HoverDef(pitch=-0.2), 4),
])
def test_make_trajectory_rejects_dof_when_built(defn, dof):
    # the DOF check runs once, when the trajectory is built, not per call
    with pytest.raises(InvalidParams):
        trajectories.make_trajectory(defn, dof)
    trajectories.make_trajectory(defn, 6)(0.0)


def test_hover_holds_its_target():
    traj = trajectories.make_trajectory(HoverDef(point=(0.1, 0.2, 0.3), yaw=0.4, pitch=0.1), 5)
    sp = traj(2.0)
    assert np.array_equal(sp.position, [0.1, 0.2, 0.3])
    assert np.allclose(geometry.yaw_pitch(sp.attitude), (0.4, 0.1), atol=1e-15)
    assert not np.any(sp.velocity) and not np.any(sp.angular_velocity)


def test_definition_invariants_enforced():
    with pytest.raises(InvalidParams):
        HelixDef(z_period=0.0)
    with pytest.raises(InvalidParams):
        RectangleDef(lap_time=-1.0)
    with pytest.raises(InvalidParams):
        AttitudeSineDef(period=0.0)
    with pytest.raises(InvalidParams):
        AttitudeSineDef(axis="w")


def test_definitions_cover_every_kind():
    assert {type(d) for d in DEFINITIONS} == set(KINDS)
    assert [k.kind for k in KINDS] == ["helix", "rectangle", "attitude_sine",
                                       "quintic_chain", "hover"]


@pytest.mark.parametrize("dof", [4, 5, 6])
@pytest.mark.parametrize("defn", DEFINITIONS, ids=lambda d: type(d).__name__)
def test_make_trajectory_returns_the_definition_or_names_what_it_lacks(defn, dof):
    if defn.kind in ("attitude_sine", "quintic_chain") and dof != 6:
        message = f"{defn.kind} requires a 6-DOF structure"
    elif dof == 4 and defn in (RectangleDef(pitch_hold=0.1), HoverDef(pitch=-0.2)):
        message = "4-DOF structures cannot hold a pitch target"
    else:
        assert trajectories.make_trajectory(defn, dof) is defn
        assert_python_floats(defn)
        return
    with pytest.raises(InvalidParams) as excinfo:
        trajectories.make_trajectory(defn, dof)
    assert str(excinfo.value) == message


POSITIVE_FIELDS = [(kind, f.name) for kind in KINDS for f in dataclasses.fields(kind)
                   if f.metadata.get("positive")]


def test_positive_fields_listed():
    assert POSITIVE_FIELDS == [
        (HelixDef, "radius"), (HelixDef, "z_period"), (HelixDef, "xy_period"),
        (HelixDef, "yaw_period"), (RectangleDef, "length"), (RectangleDef, "width"),
        (RectangleDef, "lap_time"), (AttitudeSineDef, "period")]


@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, -math.inf, math.nan])
@pytest.mark.parametrize("kind, name", POSITIVE_FIELDS,
                         ids=lambda x: getattr(x, "__name__", x))
def test_positive_fields_checked_when_built(kind, name, value):
    with pytest.raises(InvalidParams) as excinfo:
        kind(**{name: value})
    assert str(excinfo.value) == f"{name} must be positive"
    # a tiny period passes the positivity check; 1e-300 would fail the range
    # check of a helix period or a rectangle lap (test_time_scales_out_of_range)
    kind(**{name: 1e-150})


def test_chain_segments_are_not_fields():
    # the precomputed segments stay out of equality, the schema and the repr
    a, b = chain_def(), chain_def()
    assert a == b and hash(a) == hash(b) and a is not b
    assert [f.name for f in dataclasses.fields(a)] == ["waypoints", "durations"]
    assert "segments" not in repr(a) and "starts" not in repr(a)


CHAIN_POINTS = (Waypoint((0, 0, 0)), Waypoint((0, 0, 1)), Waypoint((0, 0, 2)))


@pytest.mark.parametrize("build, key", [
    (lambda: HelixDef(xy_period=1e-300), "xy_period_s"),  # (2 pi / period)**2 overflows
    (lambda: HelixDef(z_period=1e-160), "z_period_s"),
    (lambda: HelixDef(xy_period=1e-310), "xy_period_s"),  # 2 pi / period is inf
    (lambda: RectangleDef(lap_time=1e-300), "lap_time_s"),  # (lap / 4)**2 underflows to 0
    (lambda: RectangleDef(lap_time=1e200), "lap_time_s"),  # ... or overflows
    (lambda: QuinticChainDef(CHAIN_POINTS, (0.05, 1e-200)), "durations_s[1]"),
    (lambda: Waypoint((0, 0, 0), (1e103, 0, 0)), "rotation_rad"),  # angle**3 overflows
    (lambda: Waypoint((0, 0, 0), (1e308, 1e308, 0)), "rotation_rad"),  # angle is inf
    (lambda: AttitudeSineDef(period=1e-310), "period_s"),  # its sine's argument is inf
    (lambda: HelixDef(yaw_period=1e-310), "yaw_period_s"),  # the yaw rate is inf
    # (lap / 4)**2 is subnormal: the acceleration is 0 at the start of an edge, inf after
    (lambda: RectangleDef(lap_time=1e-160), "lap_time_s"),
    (lambda: QuinticChainDef(CHAIN_POINTS, (0.05, 1e-160)), "durations_s[1]"),
], ids=["helix_xy", "helix_z", "helix_xy_inf", "rectangle_short", "rectangle_long",
        "chain_duration", "waypoint_rotation", "waypoint_rotation_inf", "attitude_sine",
        "helix_yaw", "rectangle_subnormal", "chain_duration_subnormal"])
def test_time_scales_out_of_range(build, key):
    # each of these once ended a flight in an OverflowError, ZeroDivisionError
    # or ValueError from the arithmetic `__call__` repeats at every tick
    with pytest.raises(InvalidParams) as excinfo:
        build()
    assert str(excinfo.value).startswith(f"{key} is out of range: ")


HELIX_KEYS = "center_m, radius_m, z_min_m and z_max_m are"
RECTANGLE_KEYS = "length_m, width_m and height_m are"


@pytest.mark.parametrize("build, keys, reach", [
    (lambda: HoverDef(point=(200.0, 0.0, 0.0)), "point_m is", 200.0),
    (lambda: HoverDef(point=(1e308, 0.0, 0.0)), "point_m is", 1e308),
    (lambda: HoverDef(point=(0.0, 0.0, math.nextafter(100.0, math.inf))), "point_m is",
     math.nextafter(100.0, math.inf)),
    (lambda: AttitudeSineDef(hover_point=(60.0, 60.0, 60.0)), "hover_point_m is",
     math.sqrt(3) * 60.0),
    (lambda: RectangleDef(length=1e308), RECTANGLE_KEYS, 5e307),
    (lambda: RectangleDef(length=160.0, width=120.0, height=1.0), RECTANGLE_KEYS,
     math.hypot(80.0, 60.0, 1.0)),
    # the circle's farthest point from the z axis, at the farther z end
    (lambda: HelixDef(center=(-99.0, 0.0), radius=2.0, z_min=0.5, z_max=-1.0),
     HELIX_KEYS, math.hypot(101.0, 1.0)),
    (lambda: HelixDef(radius=1e300), HELIX_KEYS, 1e300),
    (lambda: HelixDef(z_min=-1e308, z_max=1e308), HELIX_KEYS, 1e308),
    (lambda: HelixDef(center=(1.5e308, 1.5e308)), HELIX_KEYS, math.inf),
    (lambda: QuinticChainDef((*CHAIN_POINTS, Waypoint((0.0, -150.0, 0.0))), (1.0,) * 3),
     "position_m is", 150.0),
], ids=["hover", "hover_huge", "hover_just_past", "attitude_sine", "rectangle_huge",
        "rectangle", "helix", "helix_radius", "helix_z", "helix_center_overflow", "chain"])
def test_references_past_the_divergence_radius(build, keys, reach):
    # a flight starts on its reference, so one past the radius diverged at
    # once: `simulate` exited 4 at t = 0.002 s where `analyze` exited 0
    with pytest.raises(InvalidParams) as excinfo:
        build()
    assert str(excinfo.value) == (
        f"{keys} out of range: the reference reaches {reach:.4g} m from the origin, "
        f"past the {simulation.DIVERGENCE_RADIUS:g} m divergence radius")


def test_references_up_to_the_divergence_radius_accepted():
    radius = simulation.DIVERGENCE_RADIUS
    HoverDef(point=(0.0, 0.0, radius))
    AttitudeSineDef(hover_point=(0.0, -radius, 0.0))
    RectangleDef(length=120.0, width=160.0, height=0.0)
    HelixDef(center=(-50.0, 0.0), radius=10.0, z_min=80.0, z_max=0.0)
    QuinticChainDef((*CHAIN_POINTS, Waypoint((radius, 0.0, 0.0))), (1.0,) * 3)


@pytest.mark.parametrize("rotation, message", [
    ((1.0, 2.0), "rotation_rad must hold 3 angles, not 2"),
    ((0.0, 0.0, 0.0, 1.0), "rotation_rad must hold 3 angles, not 4"),
    ((math.inf, 0.0, 0.0), "rotation_rad is out of range: its angle cubed must be finite"),
], ids=["two_angles", "four_angles", "infinite_angle"])
def test_waypoint_rotation_length_named_apart_from_range(rotation, message):
    # the range check reads the math domain error of an infinite angle as
    # out of range, so a wrong length is checked before it, as its own error
    with pytest.raises(InvalidParams) as excinfo:
        Waypoint((0, 0, 0), rotation)
    assert str(excinfo.value) == message


def test_time_scales_in_range_kept():
    # just inside each bound, the setpoints stay finite, also inside a lap or segment
    for defn in [HelixDef(xy_period=5e-154, z_period=5e-154, yaw_period=5e-154),
                 RectangleDef(lap_time=1e-153), RectangleDef(lap_time=1e154),
                 AttitudeSineDef(period=5e-154),
                 QuinticChainDef((Waypoint((0, 0, 0)), Waypoint((0, 0, 1), (5e102, 0, 0))),
                                 (1e154,))]:
        for t in (0.0, 0.002, 1.0):
            sp = defn(t)
            assert all(map(math.isfinite, [*sp.position, *sp.velocity, *sp.acceleration,
                                           *sp.angular_velocity]))
