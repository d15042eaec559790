import numpy as np
import pytest

from modquad import actuation, control, geometry, simulation, trajectories, vehicle
from modquad.errors import InvalidParams, NonFiniteState
from modquad.simulation import MotorModel, VehicleState

G = simulation.GRAVITY


def vertical_quad():
    m = vehicle.make_r_module(np.eye(3))
    return vehicle.assemble_structure([(m, (0, 0, 0))])


def four_t_structure():
    tp = vehicle.make_t_module(np.pi / 4)
    tm = vehicle.make_t_module(-np.pi / 4)
    return vehicle.assemble_structure(
        [(tp, (0, 0, 0)), (tm, (0, 1, 0)), (tm, (1, 0, 0)), (tp, (1, 1, 0))]
    )


def rest_state():
    return VehicleState(np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3))


def rest_accelerations(thrusts, s):
    w = s.design_matrix @ thrusts
    state = rest_state()
    return simulation.accelerations(state.attitude, state.angular_velocity,
                                    w[:3], w[3:], s, G)


def tuned_gains():
    return control.ControllerGains(
        k_pos=[6, 6, 6], k_vel=[4, 4, 4], k_att=[100, 100, 100], k_omega=[20, 20, 20]
    )


def test_free_fall_derivative():
    s = vertical_quad()
    accel, ang = rest_accelerations(np.zeros(4), s)
    assert np.allclose(accel, [0, 0, -G])
    assert np.allclose(ang, 0.0)


def test_hover_derivative_is_equilibrium():
    s = vertical_quad()
    u = np.full(4, s.mass * G / 4)
    accel, ang = rest_accelerations(u, s)
    assert np.allclose(accel, 0.0, atol=1e-12)
    assert np.allclose(ang, 0.0, atol=1e-12)


def test_pure_z_torque_derivative():
    s = vertical_quad()
    # rotors 1 and 3 share spin sign: equal thrusts there give pure z drag torque
    u = np.array([0.2, 0.0, 0.2, 0.0])
    tau_z = s.design_matrix[5] @ u
    _, ang = rest_accelerations(u, s)
    assert np.allclose(ang, [0.0, 0.0, tau_z / s.inertia[2, 2]])


def test_motor_apply_clamps_negative():
    actual, sat = simulation.motor_apply([-0.1, 0.3], MotorModel(f_max=0.645), 0.002)
    assert np.allclose(actual, [0.0, 0.3])
    assert list(sat) == [True, False]


def test_motor_apply_clamps_above_max():
    actual, sat = simulation.motor_apply([2.0], MotorModel(f_max=0.645), 0.002)
    assert actual[0] == pytest.approx(0.645)
    assert sat[0]


def test_motor_apply_passthrough():
    actual, sat = simulation.motor_apply([0.3], MotorModel(f_max=0.645), 0.002)
    assert actual[0] == pytest.approx(0.3)
    assert not sat[0]


def test_motor_apply_deadzone():
    model = MotorModel(f_max=0.645, deadzone=0.05)
    actual, sat = simulation.motor_apply([0.01, 0.3], model, 0.002)
    assert np.allclose(actual, [0.0, 0.3])
    assert list(sat) == [True, False]


def test_motor_apply_first_order_lag():
    model = MotorModel(f_max=1.0, time_constant=0.1)
    actual, _ = simulation.motor_apply([1.0], model, 0.1, previous=np.array([0.0]))
    assert actual[0] == pytest.approx(1.0 - np.exp(-1.0))


def test_free_fall_one_second():
    s = vertical_quad()
    state = rest_state()
    for _ in range(1000):
        state = simulation.step(state, np.zeros(4), s, 0.001)
    assert state.position[2] == pytest.approx(-0.5 * G, abs=1e-6)
    assert np.allclose(state.attitude, np.eye(3))


def test_hover_state_fixed_point():
    s = vertical_quad()
    u = np.full(4, s.mass * G / 4)
    state = rest_state()
    after = simulation.step(state, u, s, 0.001)
    assert np.linalg.norm(after.position - state.position) < 1e-9
    assert np.linalg.norm(after.velocity - state.velocity) < 1e-9
    assert np.linalg.norm(after.attitude - state.attitude) < 1e-9


def test_principal_axis_spin_up_matches_closed_form():
    s = vertical_quad()
    u = np.array([0.2, 0.0, 0.2, 0.0])
    tau_z = s.design_matrix[5] @ u
    state = rest_state()
    for _ in range(1000):
        state = simulation.step(state, u, s, 0.001)
    assert state.angular_velocity[2] == pytest.approx(
        tau_z / s.inertia[2, 2], abs=1e-6
    )


def test_torque_free_tumble_conserves_angular_momentum_norm():
    s = four_t_structure()
    state = VehicleState(np.zeros(3), np.zeros(3), np.eye(3),
                         np.array([0.4, -0.2, 0.9]))
    h0 = np.linalg.norm(s.inertia @ state.angular_velocity)
    for _ in range(10000):
        state = simulation.step(state, np.zeros(16), s, 0.001)
    h1 = np.linalg.norm(s.inertia @ state.angular_velocity)
    assert abs(h1 - h0) / h0 < 1e-6


def test_attitude_stays_on_rotation_group():
    s = vertical_quad()
    state = VehicleState(np.zeros(3), np.zeros(3), np.eye(3),
                         np.array([0.5, 0.3, 0.8]))
    for k in range(20000):
        state = simulation.step(state, np.zeros(4), s, 0.001)
        if k % 2000 == 0:
            assert geometry.orthonormality_drift(state.attitude) < 1e-9
    assert geometry.orthonormality_drift(state.attitude) < 1e-9


def test_momentum_conserved_without_gravity():
    s = vertical_quad()
    state = VehicleState(np.zeros(3), np.array([0.3, -0.1, 0.2]), np.eye(3),
                         np.zeros(3))
    for _ in range(500):
        state = simulation.step(state, np.zeros(4), s, 0.001, gravity=0.0)
    assert np.array_equal(state.velocity, [0.3, -0.1, 0.2])


def test_step_convergence_under_dt_halving():
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(
        trajectories.AttitudeSineDef(amplitude=np.radians(10.0), period=20.0), 6
    )
    tel_a = simulation.run_scenario(s, an, tuned_gains(), traj, 4.0,
                                    dt_ctrl=0.002, dt_sim=0.001)
    tel_b = simulation.run_scenario(s, an, tuned_gains(), traj, 4.0,
                                    dt_ctrl=0.002, dt_sim=0.0005)
    diff = max(
        np.max(np.abs(tel_a.position[-1] - tel_b.position[-1])),
        np.max(np.abs(tel_a.attitude[-1] - tel_b.attitude[-1])),
        np.max(np.abs(tel_a.velocity[-1] - tel_b.velocity[-1])),
    )
    assert diff < 1e-5


def test_saturation_monotonicity():
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(
        trajectories.AttitudeSineDef(amplitude=np.radians(8.0), period=40.0), 6
    )
    errors = []
    for f_max in (0.5, 0.645, 1.0):
        tel = simulation.run_scenario(
            s, an, tuned_gains(), traj, 16.0, dt_ctrl=0.004, dt_sim=0.002,
            motor=MotorModel(f_max=f_max),
        )
        errors.append(np.max(np.abs(tel.position - tel.position_d)))
    assert errors[0] >= errors[1] - 1e-9
    assert errors[1] >= errors[2] - 1e-9


def test_zero_duration_scenario_single_sample():
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(trajectories.HoverDef(), 6)
    tel = simulation.run_scenario(s, an, tuned_gains(), traj, 0.0)
    assert len(tel) == 1
    assert tel.t[0] == 0.0


def test_scenario_requires_integer_step_ratio():
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(trajectories.HoverDef(), 6)
    with pytest.raises(InvalidParams):
        simulation.run_scenario(s, an, tuned_gains(), traj, 1.0,
                                dt_ctrl=0.003, dt_sim=0.002)


def test_divergence_aborts_with_partial_telemetry(caplog):
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(trajectories.HoverDef(), 6)
    with pytest.raises(NonFiniteState) as info:
        simulation.run_scenario(s, an, tuned_gains(), traj, 20.0,
                                motor=MotorModel(f_max=1e-6))
    telemetry = info.value.telemetry
    assert telemetry is not None and telemetry.diverged
    assert len(telemetry) > 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "left the 100 m radius" in warnings[0]


def test_closed_loop_hover_stays_put():
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(trajectories.HoverDef(point=(0, 0, 0.5)), 6)
    tel = simulation.run_scenario(s, an, tuned_gains(), traj, 2.0)
    assert np.max(np.abs(tel.position - tel.position_d)) < 1e-6


def test_scenario_telemetry_is_deterministic():
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(
        trajectories.AttitudeSineDef(amplitude=np.radians(5.0), period=20.0), 6
    )
    tel_a = simulation.run_scenario(s, an, tuned_gains(), traj, 2.0)
    tel_b = simulation.run_scenario(s, an, tuned_gains(), traj, 2.0)
    assert np.array_equal(tel_a.position, tel_b.position)
    assert np.array_equal(tel_a.u_actual, tel_b.u_actual)
    assert np.array_equal(tel_a.attitude, tel_b.attitude)


def test_scenario_rejects_oversized_sim_step():
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(trajectories.HoverDef(), 6)
    with pytest.raises(InvalidParams):
        simulation.run_scenario(s, an, tuned_gains(), traj, 1.0,
                                dt_ctrl=0.04, dt_sim=0.02)


def test_position_integral_removes_model_mismatch():
    # simulate under stronger gravity than the controller assumes: the PD
    # loop leaves a steady z offset, the integral term removes it
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(trajectories.HoverDef(point=(0, 0, 0.5)), 6)
    without = simulation.run_scenario(
        s, an, tuned_gains(), traj, 8.0, motor=simulation.MotorModel(f_max=1.0),
        gravity=9.9,
    )
    gains = control.ControllerGains(
        k_pos=[6, 6, 6], k_vel=[4, 4, 4], k_att=[100, 100, 100],
        k_omega=[20, 20, 20], k_int=[2.0, 2.0, 2.0],
    )
    with_int = simulation.run_scenario(
        s, an, gains, traj, 8.0, motor=simulation.MotorModel(f_max=1.0),
        gravity=9.9,
    )
    final_err_without = abs(without.position[-1, 2] - 0.5)
    final_err_with = abs(with_int.position[-1, 2] - 0.5)
    assert final_err_without > 0.01
    assert final_err_with < 0.1 * final_err_without
