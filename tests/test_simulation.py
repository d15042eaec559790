import copy
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modquad import actuation, config, control, geometry, simulation, trajectories, vehicle
from modquad.errors import InapplicableDesign, InvalidParams, NonFiniteState
from modquad.simulation import MotorModel, VehicleState
from modquad.telemetry import read_csv, write_csv

G = simulation.GRAVITY
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


@pytest.mark.parametrize("f_max", [np.nan, np.inf, 0.0, -1.0])
def test_motor_model_rejects_non_finite_and_non_positive_limits(f_max):
    with pytest.raises(InvalidParams):
        MotorModel(f_max=f_max)


def test_motor_apply_clamps_negative():
    actual = simulation.motor_apply([-0.1, 0.3], MotorModel(f_max=0.645))
    # a clamped rotor sits at exactly 0.0, a value the `sat` count tests for
    assert actual.tolist() == [0.0, 0.3] and not np.signbit(actual[0])


def test_motor_apply_clamps_above_max():
    actual = simulation.motor_apply([2.0], MotorModel(f_max=0.645))
    assert actual.tolist() == [0.645]


def test_motor_apply_passthrough():
    actual = simulation.motor_apply([0.3], MotorModel(f_max=0.645))
    assert actual.tolist() == [0.3]


def test_free_fall_one_second():
    s = vertical_quad()
    state = rest_state()
    for _ in range(1000):
        state = simulation.step(state, s.design_matrix @ np.zeros(4), s, 0.001)
    assert state.position[2] == pytest.approx(-0.5 * G, abs=1e-6)
    assert np.allclose(state.attitude, np.eye(3))


def test_hover_state_fixed_point():
    s = vertical_quad()
    u = np.full(4, s.mass * G / 4)
    state = rest_state()
    after = simulation.step(state, s.design_matrix @ u, s, 0.001)
    assert np.linalg.norm(after.position - state.position) < 1e-9
    assert np.linalg.norm(after.velocity - state.velocity) < 1e-9
    assert np.linalg.norm(after.attitude - state.attitude) < 1e-9


def test_principal_axis_spin_up_matches_closed_form():
    s = vertical_quad()
    u = np.array([0.2, 0.0, 0.2, 0.0])
    tau_z = s.design_matrix[5] @ u
    state = rest_state()
    for _ in range(1000):
        state = simulation.step(state, s.design_matrix @ u, s, 0.001)
    assert state.angular_velocity[2] == pytest.approx(
        tau_z / s.inertia[2, 2], abs=1e-6
    )


def test_torque_free_tumble_conserves_angular_momentum_norm():
    s = four_t_structure()
    state = VehicleState(np.zeros(3), np.zeros(3), np.eye(3),
                         np.array([0.4, -0.2, 0.9]))
    h0 = np.linalg.norm(s.inertia @ state.angular_velocity)
    for _ in range(10000):
        state = simulation.step(state, s.design_matrix @ np.zeros(16), s, 0.001)
    h1 = np.linalg.norm(s.inertia @ state.angular_velocity)
    assert abs(h1 - h0) / h0 < 1e-6


def test_attitude_stays_on_rotation_group():
    s = vertical_quad()
    state = VehicleState(np.zeros(3), np.zeros(3), np.eye(3),
                         np.array([0.5, 0.3, 0.8]))
    for k in range(20000):
        state = simulation.step(state, s.design_matrix @ np.zeros(4), s, 0.001)
        if k % 2000 == 0:
            assert geometry.orthonormality_drift(state.attitude) < 1e-9
    assert geometry.orthonormality_drift(state.attitude) < 1e-9


def test_momentum_conserved_without_gravity():
    s = vertical_quad()
    state = VehicleState(np.zeros(3), np.array([0.3, -0.1, 0.2]), np.eye(3),
                         np.zeros(3))
    for _ in range(500):
        state = simulation.step(state, s.design_matrix @ np.zeros(4), s, 0.001, gravity=0.0)
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


def test_inapplicable_design_is_not_flown():
    # fig5d's rotor axes form an obtuse angle, so it cannot hover
    s = config.build_structure(config.load_config(FIXTURES / "fig5d.cfg"))
    an = actuation.analyze_structure(s)
    assert not an.applicable
    traj = trajectories.make_trajectory(trajectories.HoverDef(point=(0, 0, 0.5)),
                                        an.controllable_dof)
    with pytest.raises(InapplicableDesign):
        simulation.run_scenario(s, an, tuned_gains(), traj, 0.5)


def test_divergence_aborts_with_partial_telemetry(caplog, tmp_path):
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
    # the CSV holds exactly the ticks reached, not the 10,001 allocated
    path = tmp_path / "run.csv"
    write_csv(telemetry, path)
    table = read_csv(path)
    assert 1 < len(table.t) == len(telemetry) < 10001
    assert np.array_equal(table.t, np.arange(len(telemetry)) * 0.002)
    assert np.array_equal(table.position, telemetry.position)


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


def fly_from(state, tmp_path, name):
    """CSV bytes of a 1 s hover flown from `state`."""
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(trajectories.HoverDef(point=(0, 0, 0.5)), 6)
    write_csv(simulation.run_scenario(s, an, tuned_gains(), traj, 1.0,
                                      initial_state=state), tmp_path / name)
    return (tmp_path / name).read_bytes()


OFFSET_START = ([0.01, -0.02, 0.48], [0.1, 0.0, -0.05],
                geometry.rot_principal("x", 0.05).tolist(), [0.0, 0.2, -0.1])


def test_initial_state_arrays_and_lists_log_alike(tmp_path, monkeypatch):
    stepped = []
    step = simulation.step
    monkeypatch.setattr(simulation, "step",
                        lambda state, *args: stepped.append(state) or step(state, *args))
    from_lists = fly_from(VehicleState(*OFFSET_START), tmp_path, "lists.csv")
    stepped.clear()
    from_arrays = fly_from(VehicleState(*map(np.array, OFFSET_START)), tmp_path, "arrays.csv")
    assert from_lists == from_arrays
    # the arrays were read in once: the loop starts from Python floats
    first = stepped[0]
    assert all(type(x) is float for x in itertools.chain(
        first.position, first.velocity, first.angular_velocity, *first.attitude))


@pytest.mark.parametrize("as_arrays", [False, True])
def test_run_leaves_initial_state_unchanged(tmp_path, as_arrays):
    start = VehicleState(*(map(np.array, OFFSET_START) if as_arrays
                           else copy.deepcopy(OFFSET_START)))
    kept = copy.deepcopy(start)
    fly_from(start, tmp_path, "run.csv")
    for name in ("position", "velocity", "attitude", "angular_velocity"):
        assert np.array_equal(getattr(start, name), getattr(kept, name)), name
        assert type(getattr(start, name)) is type(getattr(kept, name)), name


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["duration", "dt_ctrl"])
def test_scenario_rejects_non_finite_duration_and_control_step(name, value):
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(trajectories.HoverDef(), 6)
    args = {"duration": 1.0, "dt_ctrl": 0.002, name: value}
    with pytest.raises(InvalidParams):
        simulation.run_scenario(s, an, tuned_gains(), traj, **args)


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


# Reference kernel: the numpy formulation of the RK4 step that the float
# arithmetic in `simulation` replaced, kept to hold `simulation.step` to it.


def ref_so3_exp(omega, dt):
    omega = np.asarray(omega, dtype=float)
    speed = np.linalg.norm(omega)
    angle = speed * dt
    if abs(angle) < 1e-12:
        return np.eye(3)
    p = geometry.hat(omega / speed)
    return np.eye(3) + np.sin(angle) * p + (1.0 - np.cos(angle)) * (p @ p)


def ref_accelerations(attitude, omega, force_body, torque_body, structure, gravity):
    accel = attitude @ force_body / structure.mass - gravity * geometry.E3
    ang_accel = structure.inertia_inverse @ (
        torque_body - np.cross(omega, structure.inertia @ omega)
    )
    return accel, ang_accel


def ref_step(state, thrusts, structure, dt, gravity=G):
    wrench_body = structure.design_matrix @ np.asarray(thrusts, dtype=float)
    force, torque = wrench_body[:3], wrench_body[3:]
    r0, v0, w0 = state.attitude, state.velocity, state.angular_velocity
    r_half = r0 @ ref_so3_exp(w0, dt / 2.0)
    r_full = r0 @ ref_so3_exp(w0, dt)
    a1, b1 = ref_accelerations(r0, w0, force, torque, structure, gravity)
    v2, w2 = v0 + dt / 2 * a1, w0 + dt / 2 * b1
    a2, b2 = ref_accelerations(r_half, w2, force, torque, structure, gravity)
    v3, w3 = v0 + dt / 2 * a2, w0 + dt / 2 * b2
    a3, b3 = ref_accelerations(r_half, w3, force, torque, structure, gravity)
    v4, w4 = v0 + dt * a3, w0 + dt * b3
    a4, b4 = ref_accelerations(r_full, w4, force, torque, structure, gravity)
    position = state.position + dt * ((v0 + 2 * v2 + 2 * v3 + v4) / 6.0)
    velocity = v0 + dt * ((a1 + 2 * a2 + 2 * a3 + a4) / 6.0)
    omega = w0 + dt * ((b1 + 2 * b2 + 2 * b3 + b4) / 6.0)
    attitude = r0 @ ref_so3_exp(0.5 * (w0 + omega), dt)
    if np.linalg.norm(attitude.T @ attitude - np.eye(3)) > 1e-9:
        attitude = np.asarray(geometry.orthonormalize(attitude))
    return VehicleState(position, velocity, attitude, omega)


unit_floats = st.floats(-1.0, 1.0)
vectors = st.tuples(unit_floats, unit_floats, unit_floats)


@st.composite
def rotations(draw):
    axis = np.array(draw(vectors))
    assume(np.linalg.norm(axis) > 0.1)
    return geometry.rodrigues(axis / np.linalg.norm(axis), draw(st.floats(-np.pi, np.pi)))


@st.composite
def rt_structures(draw):
    cells = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1), (2, 1, 0)]
    placements = []
    for cell in draw(st.permutations(cells))[:draw(st.integers(1, 4))]:
        if draw(st.booleans()):
            module = vehicle.make_r_module(draw(rotations()))
        else:
            module = vehicle.make_t_module(draw(st.floats(-1.4, 1.4)))
        placements.append((module, cell))
    return vehicle.assemble_structure(placements)


@st.composite
def unit_scale_states(draw):
    return VehicleState(draw(vectors), draw(vectors), draw(rotations()), draw(vectors))


@settings(max_examples=200, deadline=None)
@given(structure=rt_structures(), state=unit_scale_states(),
       thrusts=st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16),
       dt=st.sampled_from([0.0005, 0.001, 0.002]))
def test_step_matches_numpy_reference(structure, state, thrusts, dt):
    thrusts = thrusts[:structure.n_rotors]
    got = simulation.step(state, structure.design_matrix @ np.asarray(thrusts, dtype=float),
                          structure, dt)
    want = ref_step(state, thrusts, structure, dt)
    for name in ("position", "velocity", "attitude", "angular_velocity"):
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-12, name


def test_step_restores_drifted_attitude():
    drifted = geometry.rot_principal("y", 0.4) + 1e-6 * np.ones((3, 3))
    assert geometry.orthonormality_drift(drifted) > 1e-9
    state = VehicleState(np.zeros(3), np.zeros(3), drifted, np.array([0.2, 0.1, -0.3]))
    s = vertical_quad()
    after = simulation.step(state, s.design_matrix @ np.zeros(4), s, 0.001)
    assert geometry.is_rotation(after.attitude, tol=1e-12)


def test_non_finite_initial_state_aborts(caplog):
    s = four_t_structure()
    an = actuation.analyze_structure(s)
    traj = trajectories.make_trajectory(trajectories.HoverDef(), 6)
    start = VehicleState(np.zeros(3), [np.nan, 0.0, 0.0], np.eye(3), np.zeros(3))
    with pytest.raises(NonFiniteState) as info:
        simulation.run_scenario(s, an, tuned_gains(), traj, 1.0, initial_state=start)
    assert info.value.telemetry.diverged
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "non-finite state" in warnings[0]
