import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modquad import actuation, control, geometry, vehicle
from modquad.control import ControllerGains, Setpoint
from modquad.errors import DegenerateThrust, GimbalDegenerate, InvalidParams
from modquad.simulation import VehicleState

G = control.GRAVITY


def heading(yaw, pitch=0.0):
    """x-axis of Rz(yaw) Ry(pitch)."""
    return geometry.rot_principal("z", yaw) @ geometry.rot_principal("y", pitch) @ geometry.E1


def unit_gains(**overrides):
    return ControllerGains(**overrides)


def four_t_structure():
    tp = vehicle.make_t_module(np.pi / 4)
    tm = vehicle.make_t_module(-np.pi / 4)
    return vehicle.assemble_structure(
        [(tp, (0, 0, 0)), (tm, (0, 1, 0)), (tm, (1, 0, 0)), (tp, (1, 1, 0))]
    )


def test_gains_must_be_positive():
    with pytest.raises(InvalidParams):
        ControllerGains(k_pos=[1.0, -1.0, 1.0])


@pytest.mark.parametrize("overrides", [
    {"k_pos": [1.0, np.nan, 1.0]}, {"k_vel": [np.inf, 1.0, 1.0]},
    {"k_att": [1.0, 1.0, np.nan]}, {"k_omega": [1.0, np.inf, 1.0]},
    {"k_int": [np.nan, 0.0, 0.0]}, {"k_int": [0.0, np.inf, 0.0]},
    {"integral_limit": -1.0}, {"integral_limit": 0.0},
    {"integral_limit": np.nan}, {"integral_limit": np.inf},
    {"k_att": [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
])
def test_gains_reject_non_finite_non_positive_and_non_diagonal_values(overrides):
    with pytest.raises(InvalidParams):
        ControllerGains(**overrides)


def test_gains_accept_diagonal_matrices():
    gains = ControllerGains(k_att=np.diag([1.0, 2.0, 3.0]), k_int=np.zeros((3, 3)))
    assert gains.k_att == (1.0, 2.0, 3.0) and gains.k_int == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("values", [
    (1.0, 2.0, 3.0), [1.0, 2.0, 3.0], (1, 2, 3), np.array([1.0, 2.0, 3.0]),
    (0.0, 0.0, 0.0), (-0.0, 0.0, 1e-300), (1e308, 5e-324, 1.0), (1.0, -0.5, 2.0),
    (np.nan, 1.0, 1.0), (1.0, 1.0, -np.inf),
])
def test_gains_read_as_the_numpy_path_reads_them(values):
    expected = np.asarray(values, dtype=float)
    for zero_ok in (False, True):
        if np.all(np.isfinite(expected) & (expected >= 0.0 if zero_ok else expected > 0.0)):
            got = control._diag_gains(values, "k", zero_ok)
            assert type(got) is tuple and all(type(v) is float for v in got)
            assert np.asarray(got).tobytes() == expected.tobytes()
        else:
            kind = "non-negative" if zero_ok else "positive"
            with pytest.raises(InvalidParams, match=f"^k must be three finite {kind} gains$"):
                control._diag_gains(values, "k", zero_ok)


def test_gains_of_three_floats_are_kept_as_given():
    values = (6.0, 5.0, 4.0)
    assert control._diag_gains(values, "k_pos") is values
    assert ControllerGains(k_pos=values).k_pos is values
    for bad in ((1.0, -1.0, 1.0), (1.0, np.nan, 1.0), (np.inf, 1.0, 1.0), (1.0, 1.0)):
        with pytest.raises(InvalidParams, match="^k_pos must be three finite positive gains$"):
            ControllerGains(k_pos=bad)


def test_position_accel_hover():
    a = control.position_accel(np.zeros(3), np.zeros(3), np.zeros(3), unit_gains())
    assert np.allclose(a, [0.0, 0.0, G])


def test_position_accel_proportional_term():
    gains = unit_gains(k_pos=[4.0, 4.0, 4.0])
    a = control.position_accel([0.1, 0, 0], np.zeros(3), np.zeros(3), gains)
    assert np.allclose(a, [0.4, 0.0, G])


def test_position_accel_free_fall_feedforward():
    a = control.position_accel(np.zeros(3), np.zeros(3), [0, 0, -G], unit_gains())
    assert np.allclose(a, np.zeros(3))


def test_desired_attitude_4dof_hover():
    assert np.allclose(control.desired_attitude_4dof([0, 0, G], heading(0.0)), np.eye(3))


def test_desired_attitude_4dof_yawed():
    r = control.desired_attitude_4dof([0, 0, G], heading(np.pi / 2))
    assert np.allclose(r, geometry.rot_principal("z", np.pi / 2))


def test_desired_attitude_4dof_tilted():
    r = np.asarray(control.desired_attitude_4dof([1.0, 0.0, 1.0], heading(0.0)))
    s = np.sqrt(2) / 2
    assert np.allclose(r[:, 2], [s, 0.0, s])
    assert np.allclose(r[:, 1], [0.0, 1.0, 0.0])
    assert np.allclose(r[:, 0], [s, 0.0, -s])


def test_desired_attitude_4dof_z_along_accel():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        accel = rng.normal(size=3)
        accel[2] = abs(accel[2]) + 1.0
        yaw = rng.uniform(-np.pi, np.pi)
        r = np.asarray(control.desired_attitude_4dof(accel, heading(yaw)))
        assert geometry.is_rotation(r)
        assert np.allclose(r[:, 2], accel / np.linalg.norm(accel))


def test_desired_attitude_4dof_degenerate_inputs():
    with pytest.raises(DegenerateThrust):
        control.desired_attitude_4dof([0.0, 0.0, 1e-9], heading(0.0))
    with pytest.raises(GimbalDegenerate):
        control.desired_attitude_4dof([G, 0.0, 0.0], heading(0.0))


def test_desired_attitude_5dof_identity():
    assert np.allclose(control.desired_attitude_5dof([0, 0, G], heading(0.0, 0.0)), np.eye(3))


def test_desired_attitude_5dof_pitch_target():
    pitch = np.radians(-5.0)
    r = np.asarray(control.desired_attitude_5dof([0, 0, G], heading(0.0, pitch)))
    c, s = np.cos(np.radians(5.0)), np.sin(np.radians(5.0))
    assert np.allclose(r[:, 0], [c, 0.0, s])
    assert np.allclose(r[:, 1], [0.0, 1.0, 0.0])
    assert np.allclose(r[:, 2], [-s, 0.0, c])


def test_desired_attitude_5dof_yawed():
    r = control.desired_attitude_5dof([0, 0, G], heading(np.pi / 2, 0.0))
    assert np.allclose(r, geometry.rot_principal("z", np.pi / 2))


def test_desired_attitude_5dof_x_tracks_targets_exactly():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        accel = rng.normal(size=3)
        accel[2] = abs(accel[2]) + 1.0
        yaw = rng.uniform(-np.pi, np.pi)
        pitch = rng.uniform(-1.0, 1.0)
        target = geometry.rot_principal("z", yaw) @ geometry.rot_principal("y", pitch)
        r = np.asarray(control.desired_attitude(5, target, accel))
        assert geometry.is_rotation(r)
        expected_x = (
            geometry.rot_principal("z", yaw)
            @ geometry.rot_principal("y", pitch)
            @ geometry.E1
        )
        assert np.allclose(r[:, 0], expected_x, atol=1e-12)


unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))


@settings(max_examples=300, deadline=None)
@given(axis=unit_vectors, angle=st.floats(-np.pi, np.pi), thrust=unit_vectors,
       magnitude=st.floats(0.1, 100.0))
def test_desired_attitude_keeps_what_each_dof_tracks(axis, angle, thrust, magnitude):
    # any target rotation, roll included, and any thrust direction
    target = geometry.rodrigues(axis, angle)
    accel = magnitude * thrust
    x_target = target[:, 0]
    assume(np.linalg.norm(np.cross(thrust, x_target)) > 1e-3)
    assert np.array_equal(control.desired_attitude(6, target, accel), target)
    r5 = np.asarray(control.desired_attitude(5, target, accel))
    assert geometry.is_rotation(r5)
    assert np.max(np.abs(r5[:, 0] - x_target)) < 1e-12
    r4 = np.asarray(control.desired_attitude(4, target, accel))
    assert geometry.is_rotation(r4)
    assert np.allclose(r4[:, 2], thrust, atol=1e-12)
    # x lies in the plane of the heading and z, on the heading's side
    assert abs(r4[:, 0] @ np.cross(x_target, thrust)) < 1e-9
    assert r4[:, 0] @ x_target > 0.0


def test_attitude_error_zero_at_tracking():
    frame = geometry.rot_principal("y", np.pi / 18)
    attitude = frame.T  # structure pose that puts the thrust frame at identity
    e_rot, e_omega = control.attitude_error(
        np.eye(3), geometry.matmul3(attitude, frame), np.zeros(3), np.zeros(3)
    )
    assert np.allclose(e_rot, 0.0, atol=1e-15)
    assert np.allclose(e_omega, 0.0)


def test_attitude_error_small_yaw():
    e_rot, _ = control.attitude_error(
        np.eye(3), geometry.matmul3(geometry.rot_principal("z", 0.1), np.eye(3)),
        np.zeros(3), np.zeros(3),
    )
    assert np.allclose(e_rot, [0.0, 0.0, np.sin(0.1)], atol=1e-12)


def test_attitude_error_antisymmetric():
    rng = np.random.default_rng(47)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r1 = geometry.rodrigues(axis, rng.uniform(-1, 1))
        axis2 = rng.normal(size=3)
        axis2 /= np.linalg.norm(axis2)
        r2 = geometry.rodrigues(axis2, rng.uniform(-1, 1))
        fwd, _ = control.attitude_error(r1, geometry.matmul3(r2, np.eye(3)),
                                        np.zeros(3), np.zeros(3))
        rev, _ = control.attitude_error(r2, geometry.matmul3(r1, np.eye(3)),
                                        np.zeros(3), np.zeros(3))
        assert np.allclose(fwd, -np.asarray(rev), atol=1e-12)


def test_attitude_accel_terms():
    gains = unit_gains(k_att=[9.0, 9.0, 9.0], k_omega=[2.0, 2.0, 2.0])
    assert np.allclose(control.attitude_accel(np.zeros(3), np.zeros(3), gains), 0.0)
    assert np.allclose(
        control.attitude_accel([0, 0, 0.1], np.zeros(3), gains), [0, 0, -0.9]
    )
    assert np.allclose(
        control.attitude_accel(np.zeros(3), [0.5, 0, 0], gains), [-1.0, 0, 0]
    )


def test_wrench_hover():
    w = control.wrench([0, 0, G], np.zeros(3), np.eye(3), np.zeros(3),
                       0.54, np.diag([1e-3, 1e-3, 2e-3]))
    assert np.allclose(w[:3], [0.0, 0.0, 0.54 * G])
    assert w[2] == pytest.approx(5.2974)
    assert np.allclose(w[3:], 0.0)


def test_wrench_gyroscopic_term_vanishes_on_principal_axis():
    j = np.diag([1e-3, 1e-3, 2e-3])
    w = control.wrench(np.zeros(3), np.zeros(3), np.eye(3), [0, 0, 1.0], 1.0, j)
    assert np.allclose(w[3:], 0.0)


def test_wrench_force_rotates_into_thrust_frame():
    att = geometry.rot_principal("y", np.pi / 18)
    w = control.wrench([0, 0, G], np.zeros(3), att, np.zeros(3), 0.54, np.eye(3))
    assert np.allclose(w[:3], 0.54 * att.T @ np.array([0.0, 0.0, G]))
    assert w[0] == pytest.approx(-0.54 * G * np.sin(np.pi / 18))


def test_control_step_hover_matches_hover_allocation():
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    state = VehicleState(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3))
    sp = Setpoint(np.zeros(3), np.zeros(3), np.zeros(3), np.eye(3))
    u = control.Controller(s, an).step(state, sp)
    assert np.max(np.abs(u - s.mass * G / (16 * np.cos(np.pi / 4)))) < 1e-9


def test_control_step_fixed_point_balances_gravity():
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    ctl = control.Controller(s, an)
    state = VehicleState(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3))
    sp = Setpoint(np.zeros(3), np.zeros(3), np.zeros(3), np.eye(3))
    u = ctl.step(state, sp)
    hover = np.array([0.0, 0.0, s.mass * G, 0.0, 0.0, 0.0])
    assert np.linalg.norm(ctl.design_f @ u - hover) < 1e-9


def test_control_step_descends_when_above_setpoint():
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    state = VehicleState([0, 0, 0.1], np.zeros(3), np.eye(3), np.zeros(3))
    sp = Setpoint(np.zeros(3), np.zeros(3), np.zeros(3), np.eye(3))
    u = control.Controller(s, an).step(state, sp)
    ctl = control.Controller(s, an)
    commanded_z_force = (ctl.design_f @ u)[2]
    assert commanded_z_force < s.mass * G


def test_integral_term_accumulates_and_clamps():
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    gains = unit_gains(k_int=[1.0, 1.0, 1.0], integral_limit=0.05)
    ctl = control.Controller(s, an, gains)
    state = VehicleState([0, 0, -0.1], np.zeros(3), np.eye(3), np.zeros(3))
    sp = Setpoint(np.zeros(3), np.zeros(3), np.zeros(3), np.eye(3))
    for _ in range(100):
        ctl.step(state, sp, dt=0.01)
    assert ctl._integral[2] == pytest.approx(0.05)
