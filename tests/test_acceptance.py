"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Closed-loop scenarios run the bundled fixture configs through the CSV
pipeline exactly as the CLI does, and check the tracking-error bounds the
noise-free simulator must stay within.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from modquad import (
    actuation,
    config,
    control,
    geometry,
    simulation,
    telemetry,
    vehicle,
)
from modquad.trajectories import make_trajectory

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

G = 9.81


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def build_fixture(name):
    cfg = config.load_config(FIXTURES / f"{name}.cfg")
    structure = config.build_structure(cfg)
    analysis = actuation.analyze_structure(structure, f_max=cfg.physical.f_max_n)
    return cfg, structure, analysis


def run_fixture(name, tmp_path, pitch_hold=None):
    cfg, structure, analysis = build_fixture(name)
    scenario = cfg.scenario
    trajectory_def = scenario.trajectory
    if pitch_hold is not None:
        trajectory_def = dataclasses.replace(trajectory_def, pitch_hold=pitch_hold)
    trajectory = make_trajectory(trajectory_def, analysis.controllable_dof)
    start = time.time()
    log = simulation.run_scenario(
        structure, analysis, cfg.gains, trajectory,
        duration=scenario.duration_s, dt_ctrl=scenario.dt_ctrl_s,
        dt_sim=scenario.dt_sim_s,
        motor=simulation.MotorModel(f_max=cfg.physical.f_max_n),
    )
    wall = time.time() - start
    path = tmp_path / f"{name}.csv"
    telemetry.write_csv(log, path)
    table = telemetry.read_csv(path)
    metrics = telemetry.compute_metrics(table, skip_s=scenario.skip_s,
                                        frame_rotation=analysis.f_frame)
    return metrics, wall


def test_criterion_1_torque_balance_random_modules():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst_residual = 0.0
    worst_lambda = 0.0
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rstar = geometry.rodrigues(axis, rng.uniform(-np.pi, np.pi))
        rep = vehicle.check_torque_balance(vehicle.make_r_module(rstar))
        worst_residual = max(worst_residual, np.linalg.norm(rep.residual_torque))
        worst_lambda = max(worst_lambda, abs(rep.thrust_magnitude - 4.0))
    for _ in range(200):
        eta = rng.uniform(-np.pi / 3, np.pi / 3)
        rep = vehicle.check_torque_balance(vehicle.make_t_module(eta))
        worst_residual = max(worst_residual, np.linalg.norm(rep.residual_torque))
        worst_lambda = max(
            worst_lambda, abs(rep.thrust_magnitude - 4.0 * np.cos(eta))
        )
    elapsed = time.time() - start
    ok = worst_residual < 1e-9 and worst_lambda < 1e-9 and elapsed < 1.0
    report("criterion 1 (torque balance)", ok,
           f"max residual {worst_residual:.2e} N*m, max thrust-gain error "
           f"{worst_lambda:.2e}, runtime {elapsed:.2f} s")


def test_criterion_2_dof_table():
    got = {}
    for name, expected in [("exp1", 4), ("exp2", 5), ("exp3", 6), ("exp4", 6)]:
        got[name] = build_fixture(name)[2].controllable_dof
    flat = vehicle.make_r_module(np.eye(3))
    grid = vehicle.assemble_structure(
        [(flat, c) for c in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]]
    )
    got["vertical 2x2"] = actuation.analyze_structure(grid).controllable_dof
    expected = {"exp1": 4, "exp2": 5, "exp3": 6, "exp4": 6, "vertical 2x2": 4}
    report("criterion 2 (DOF table)", got == expected, f"{got}")


def test_criterion_3_thrust_frames_and_ellipsoid():
    _, _, an1 = build_fixture("exp1")
    err1 = np.max(np.abs(an1.f_frame - geometry.rot_principal("y", np.pi / 18)))
    _, _, an2 = build_fixture("exp2")
    err2 = np.max(np.abs(an2.f_frame - np.eye(3)))
    _, s4, an4 = build_fixture("exp4")
    err4 = np.max(np.abs(an4.f_frame - np.eye(3)))

    a_f = s4.design_matrix[:3]
    sigma_max = np.linalg.svd(a_f, compute_uv=False)[0]
    rng = np.random.default_rng(7)
    u = rng.normal(size=(10000, a_f.shape[1]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    bound_ok = bool(np.all(np.linalg.norm(u @ a_f.T, axis=1) <= sigma_max + 1e-12))
    _, _, vt = np.linalg.svd(a_f)
    top_gap = abs(np.linalg.norm(a_f @ vt[0]) - sigma_max)

    ok = err1 < 1e-9 and err2 < 1e-9 and err4 < 1e-9 and bound_ok and top_gap < 1e-6
    report("criterion 3 (thrust frame + ellipsoid)", ok,
           f"frame errors {err1:.1e}/{err2:.1e}/{err4:.1e}, bound holds on "
           f"10^4 samples: {bound_ok}, top-vector gap {top_gap:.1e}")


def test_criterion_4_allocation():
    _, s, an = build_fixture("exp4")
    a_f = actuation.design_in_f_frame(s.design_matrix, an.f_frame)
    controller = control.Controller(s, an)
    rng = np.random.default_rng(11)
    worst_exact = 0.0
    for _ in range(1000):
        w = rng.normal(size=6)
        u = controller.allocate(w)
        worst_exact = max(worst_exact,
                          np.linalg.norm(a_f @ u - w) / np.linalg.norm(w))
    _, _, vt = np.linalg.svd(a_f[an.wrench_rows])
    null_basis = vt[6:]
    min_norm_ok = True
    for _ in range(100):
        w = rng.normal(size=6)
        u = controller.allocate(w)
        delta = rng.normal(size=null_basis.shape[0]) @ null_basis
        if np.linalg.norm(u) > np.linalg.norm(u + delta) + 1e-12:
            min_norm_ok = False
    hover = controller.allocate(np.array([0.0, 0.0, s.mass * G, 0.0, 0.0, 0.0]))
    hover_err = np.max(np.abs(hover - s.mass * G / (16 * np.cos(np.pi / 4))))
    residual = np.linalg.norm(
        a_f @ hover - np.array([0.0, 0.0, s.mass * G, 0.0, 0.0, 0.0])
    )
    ok = worst_exact < 1e-8 and min_norm_ok and hover_err < 1e-9 and residual < 1e-9
    report("criterion 4 (allocation)", ok,
           f"worst relative residual {worst_exact:.1e}, minimum-norm "
           f"{min_norm_ok}, hover error {hover_err:.1e} N")


def test_criterion_5_integrator():
    # states and wrenches as float lists, each wrench computed once, as
    # run_scenario hands them to the step
    s = vehicle.assemble_structure([(vehicle.make_r_module(np.eye(3)), (0, 0, 0))])
    no_thrust = (s.design_matrix @ np.zeros(4)).tolist()
    state = simulation.VehicleState([0.0] * 3, [0.0] * 3, np.eye(3).tolist(), [0.0] * 3)
    for _ in range(1000):
        state = simulation.step(state, no_thrust, s, 0.001)
    fall_err = abs(state.position[2] + 0.5 * G)

    state = simulation.VehicleState([0.0] * 3, [0.0] * 3, np.eye(3).tolist(),
                                    [0.5, 0.3, 0.8])
    for _ in range(100000):
        state = simulation.step(state, no_thrust, s, 0.001)
    worst_drift = geometry.orthonormality_drift(state.attitude)

    u = np.array([0.2, 0.0, 0.2, 0.0])
    tau_z = s.design_matrix[5] @ u
    spin_up = (s.design_matrix @ u).tolist()
    state = simulation.VehicleState([0.0] * 3, [0.0] * 3, np.eye(3).tolist(), [0.0] * 3)
    for _ in range(1000):
        state = simulation.step(state, spin_up, s, 0.001)
    spin_err = abs(state.angular_velocity[2] - tau_z / s.inertia[2, 2])

    ok = fall_err < 1e-6 and worst_drift < 1e-9 and spin_err < 1e-6
    report("criterion 5 (integrator)", ok,
           f"free-fall error {fall_err:.1e} m, SO(3) drift {worst_drift:.1e} "
           f"after 1e5 steps, spin-up error {spin_err:.1e} rad/s")


def test_criterion_6a_helix_tracking(tmp_path):
    metrics, wall = run_fixture("exp1", tmp_path)
    pos = metrics.max_position_error
    yaw = metrics.max_attitude_error_deg[2]
    ok = bool(np.all(pos < 0.05) and yaw < 2.0 and wall < 60.0)
    report("criterion 6a (helix, 4 DOF)", ok,
           f"pos {np.round(pos, 4)} m (<0.05), yaw {yaw:.3f} deg (<2), "
           f"wall {wall:.1f} s")


@pytest.mark.parametrize("pitch_deg", [-5.0, 0.0])
def test_criterion_6b_rectangle_with_pitch(tmp_path, pitch_deg):
    metrics, wall = run_fixture("exp2", tmp_path,
                                pitch_hold=np.radians(pitch_deg))
    pos = metrics.max_position_error
    pitch_err = metrics.max_attitude_error_deg[1]
    # y is the attitude-coupled direction of this 5-DOF design, so it
    # must carry the largest error regardless of the pitch target
    y_largest = pos[1] >= max(pos[0], pos[2])
    ok = bool(pos[0] < 0.05 and pos[2] < 0.05 and pos[1] < 0.15
              and pitch_err < 1.0 and y_largest and wall < 60.0)
    report(f"criterion 6b (rectangle, 5 DOF, pitch {pitch_deg:g} deg)", ok,
           f"pos {np.round(pos, 4)} m (x,z<0.05, y<0.15, y largest: "
           f"{y_largest}), pitch error {pitch_err:.3f} deg (<1), "
           f"wall {wall:.1f} s")


@pytest.mark.parametrize("name", ["exp3", "exp6"])
def test_criterion_6c_rectangle_untilted(tmp_path, name):
    metrics, wall = run_fixture(name, tmp_path)
    pos = metrics.max_position_error
    roll, pitch = metrics.max_attitude_error_deg[:2]
    ok = bool(np.all(pos < 0.05) and roll < 2.0 and pitch < 2.0 and wall < 60.0)
    report(f"criterion 6c ({name}: rectangle, 6 DOF, no tilt)", ok,
           f"pos {np.round(pos, 4)} m (<0.05), roll/pitch "
           f"{roll:.3f}/{pitch:.3f} deg (<2), wall {wall:.1f} s")


def test_criterion_6d_sinusoidal_pitch(tmp_path):
    metrics, wall = run_fixture("exp4", tmp_path)
    pos = metrics.max_position_error
    rot = metrics.max_attitude_error_deg
    ok = bool(np.all(rot < 3.0) and np.all(pos < 0.2) and wall < 60.0)
    report("criterion 6d (sinusoidal pitch, 6 DOF)", ok,
           f"rotation {np.round(rot, 3)} deg (<3), pos {np.round(pos, 4)} m "
           f"(<0.2), wall {wall:.1f} s")


@pytest.mark.parametrize("name", ["sim1", "sim2", "sim3"])
def test_criterion_6e_quintic_scalability(tmp_path, name):
    metrics, wall = run_fixture(name, tmp_path)
    pos = metrics.max_position_error
    roll, pitch, yaw = metrics.max_attitude_error_deg
    ok = bool(np.all(pos < 0.02) and roll < 5.0 and pitch < 5.0 and yaw < 1.0
              and wall < 60.0)
    report(f"criterion 6e ({name}: chained quintic, 6 DOF)", ok,
           f"pos {np.round(pos, 4)} m (<0.02), roll/pitch "
           f"{roll:.3f}/{pitch:.3f} deg (<5), yaw {yaw:.3f} deg (<1), "
           f"wall {wall:.1f} s")


def test_criterion_7_static_pitch_boundary():
    # The structure is checked at the rotor limit exp4 is built and flown
    # with: f_max_n = 0.912 N, the payload limit for 45-deg tilted rotors,
    # (0.135 + 0.128) * 9.81 / (4 cos(pi/4)). There a static hover exists up
    # to atan(tan(eta)/sqrt(2)) ~= 35.26 deg, which an independent LP
    # feasibility oracle confirms to 1e-3 deg. At the untilted default
    # vehicle.DEFAULT_F_MAX = 0.645 N the force budget caps the boundary at
    # 17.42 deg instead; that case is asserted against its closed form by
    # test_pitch_feasibility_boundary_matches_force_budget and
    # test_pitch_feasibility_monotone in test_actuation.py.
    cfg, s, _ = build_fixture("exp4")
    f_max = cfg.physical.f_max_n
    angle_tol = 1e-4
    limit = actuation.pitch_feasibility_limit(s, f_max=f_max,
                                              angle_tol=angle_tol)
    monotone = True
    for theta in np.radians(np.arange(0.0, 50.0, 2.5)):
        att = geometry.rot_principal("y", theta)
        if actuation.static_hover_feasible(s, att, f_max=f_max) != (theta <= limit):
            monotone = False
    eta = abs(cfg.modules[0].eta_rad)
    closed_form = np.arctan(np.tan(eta) / np.sqrt(2.0))
    deg = np.degrees(limit)
    ok = (monotone and 30.0 < deg < 45.0
          and abs(limit - closed_form) <= 2 * angle_tol)
    report("criterion 7 (static pitch boundary)", ok,
           f"boundary {deg:.2f} deg at f_max {f_max} N (required inside "
           f"(30, 45) and within {2 * angle_tol:g} rad of "
           f"atan(tan(eta)/sqrt(2)) = {np.degrees(closed_form):.2f} deg), "
           f"feasibility monotone: {monotone}")


def test_criterion_8_determinism(tmp_path):
    cfg, structure, analysis = build_fixture("exp6")
    trajectory = make_trajectory(cfg.scenario.trajectory,
                                 analysis.controllable_dof)
    paths = []
    for tag in ("a", "b"):
        log = simulation.run_scenario(
            structure, analysis, cfg.gains, trajectory, duration=3.0,
            dt_ctrl=cfg.scenario.dt_ctrl_s, dt_sim=cfg.scenario.dt_sim_s,
            motor=simulation.MotorModel(f_max=cfg.physical.f_max_n),
        )
        path = tmp_path / f"det_{tag}.csv"
        telemetry.write_csv(log, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report("criterion 8 (determinism)", identical,
           "two runs produced byte-identical telemetry")
