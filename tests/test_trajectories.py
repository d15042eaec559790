import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modquad import geometry, trajectories
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
    sp = trajectories.helix(0.0, HelixDef())
    assert np.allclose(sp.position, [-0.05, 0.0, 0.45])
    assert yaw_of(sp) == 0.0


def test_helix_z_range_endpoints():
    defn = HelixDef()
    assert trajectories.helix(7.0, defn).position[2] == pytest.approx(0.95)
    assert trajectories.helix(14.0, defn).position[2] == pytest.approx(0.45)


def test_helix_yaw_wraps_after_full_cycle():
    defn = HelixDef()
    assert yaw_of(trajectories.helix(18.0, defn)) == pytest.approx(
        yaw_of(trajectories.helix(0.0, defn)), abs=1e-9
    )


def test_helix_stays_on_cylinder():
    defn = HelixDef()
    for t in np.linspace(0.0, 30.0, 200):
        sp = trajectories.helix(t, defn)
        radial = np.linalg.norm(sp.position[:2] - np.array(defn.center))
        assert radial == pytest.approx(defn.radius, abs=1e-12)


def test_rectangle_starts_at_first_corner():
    defn = RectangleDef(pitch_hold=np.radians(-5.0))
    sp = trajectories.rectangle(0.0, defn)
    assert np.allclose(sp.position, [-0.4, -0.3, defn.height])
    assert pitch_of(sp) == pytest.approx(np.radians(-5.0))
    assert np.allclose(sp.attitude, geometry.rot_principal("y", np.radians(-5.0)))


def test_rectangle_holds_pitch_everywhere():
    defn = RectangleDef(pitch_hold=np.radians(-5.0))
    for t in np.linspace(0.0, defn.lap_time, 50):
        assert pitch_of(trajectories.rectangle(t, defn)) == pytest.approx(
            np.radians(-5.0)
        )


def test_rectangle_periodic():
    defn = RectangleDef()
    start = np.asarray(trajectories.rectangle(0.0, defn).position)
    end = np.asarray(trajectories.rectangle(defn.lap_time, defn).position)
    assert np.max(np.abs(end - start)) < 1e-9


def test_rectangle_corner_velocities_vanish():
    defn = RectangleDef()
    for k in range(4):
        sp = trajectories.rectangle(k * defn.lap_time / 4.0, defn)
        assert np.allclose(sp.velocity, 0.0, atol=1e-12)


def test_rectangle_dof4_rejects_pitch_target():
    with pytest.raises(InvalidParams):
        trajectories.make_trajectory(RectangleDef(pitch_hold=0.1), 4)


def test_attitude_sine_zero_crossing():
    sp = trajectories.attitude_sine(0.0, AttitudeSineDef())
    assert np.allclose(sp.attitude, np.eye(3))
    assert np.allclose(sp.position, AttitudeSineDef().hover_point)


def test_attitude_sine_quarter_period_peak():
    defn = AttitudeSineDef()
    sp = trajectories.attitude_sine(22.5, defn)
    assert pitch_of(sp) == pytest.approx(np.radians(20.0))
    assert np.allclose(sp.attitude, geometry.rot_principal("y", np.radians(20.0)))
    assert np.allclose(sp.angular_velocity, 0.0, atol=1e-12)


def test_attitude_sine_half_period():
    sp = trajectories.attitude_sine(45.0, AttitudeSineDef())
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
    chain = trajectories.QuinticChain(chain_def())
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
    chain = trajectories.QuinticChain(chain_def())
    for t in (0.0, 8.0, 16.0):
        sp = chain(t)
        assert np.allclose(sp.velocity, 0.0, atol=1e-9)
        assert np.allclose(sp.angular_velocity, 0.0, atol=1e-9)


def test_quintic_chain_mid_segment():
    defn = chain_def()
    chain = trajectories.QuinticChain(defn)
    for k, duration in enumerate(defn.durations):
        a = np.array(defn.waypoints[k].position)
        b = np.array(defn.waypoints[k + 1].position)
        sp = chain(sum(defn.durations[:k]) + duration / 2.0)
        assert np.allclose(sp.position, 0.5 * (a + b), atol=1e-12)
        assert np.allclose(sp.velocity, 15.0 * (b - a) / (8.0 * duration), atol=1e-12)
        assert np.allclose(sp.acceleration, 0.0, atol=1e-12)


def test_quintic_chain_equal_waypoints_hold_still():
    rotation = (0.0, np.radians(10.0), 0.0)
    chain = trajectories.QuinticChain(QuinticChainDef(
        waypoints=(Waypoint((0.3, -0.1, 0.6), rotation),
                   Waypoint((0.3, -0.1, 0.6), rotation)),
        durations=(2.0,)))
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
    for durations in [(1.0, 2.0), (0.0,), (-1.0,)]:
        with pytest.raises(InvalidParams):
            QuinticChainDef(waypoints=(Waypoint((0, 0, 0)), Waypoint((1, 0, 0))),
                            durations=durations)


@pytest.mark.parametrize("factory", [
    lambda t: trajectories.helix(t, HelixDef()),
    lambda t: trajectories.rectangle(t + 0.5, RectangleDef()),
    lambda t: trajectories.QuinticChain(chain_def())(t + 1.0),
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
        r0 = np.asarray(trajectories.attitude_sine(t - h, defn).attitude)
        r1 = np.asarray(trajectories.attitude_sine(t + h, defn).attitude)
        sp = trajectories.attitude_sine(t, defn)
        omega_fd = geometry.vee(np.asarray(sp.attitude).T @ ((r1 - r0) / (2 * h)))
        assert np.allclose(omega_fd, sp.angular_velocity, atol=1e-6)


def test_multi_axis_chain_rate_consistent_with_finite_differences():
    # waypoints rotate about all three axes, so the rotation vector and its
    # rate are not parallel and every term of the right Jacobian counts
    chain = trajectories.QuinticChain(QuinticChainDef(
        waypoints=(
            Waypoint((0.0, 0.0, 0.5), (0.1, -0.05, 0.2)),
            Waypoint((0.4, 0.2, 0.8), (-0.15, 0.25, 0.35)),
            Waypoint((0.0, 0.0, 0.5), (0.3, 0.1, -0.4)),
        ),
        durations=(8.0, 6.0),
    ))
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


@pytest.mark.parametrize("generator", [
    lambda t: trajectories.helix(t, HelixDef()),
    lambda t: trajectories.rectangle(t, RectangleDef(pitch_hold=0.1)),
    lambda t: trajectories.attitude_sine(t, AttitudeSineDef()),
    lambda t: trajectories.hover(t, HoverDef(point=(0, 0, 1), yaw=0.3)),
    lambda t: trajectories.QuinticChain(chain_def())(t),
])
def test_setpoints_hold_python_floats(generator):
    # an np.float64 here would slow every tick's float arithmetic
    for t in (0.0, 1.3, 7.9, 100.0):
        sp = generator(t)
        scalars = [*sp.position, *sp.velocity, *sp.acceleration, *sp.angular_velocity,
                   *itertools.chain.from_iterable(sp.attitude)]
        assert len(scalars) == 21 and len(sp.attitude) == 3
        assert all(type(x) is float for x in scalars)


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
