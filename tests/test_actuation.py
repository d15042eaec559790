import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modquad import actuation, config, control, geometry, vehicle
from modquad.errors import DegenerateStructure, InvalidDOF, InvalidParams

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def single_r(angle_rad, axis="y"):
    module = vehicle.make_r_module(geometry.rot_principal(axis, angle_rad))
    return vehicle.assemble_structure([(module, (0, 0, 0))])


def two_r(angle1, angle2, axis="y"):
    m1 = vehicle.make_r_module(geometry.rot_principal(axis, angle1))
    m2 = vehicle.make_r_module(geometry.rot_principal(axis, angle2))
    return vehicle.assemble_structure([(m1, (0, 0, 0)), (m2, (0, 1, 0))])


def four_t_diagonal(eta=np.pi / 4):
    tp = vehicle.make_t_module(eta)
    tm = vehicle.make_t_module(-eta)
    return vehicle.assemble_structure(
        [(tp, (0, 0, 0)), (tm, (0, 1, 0)), (tm, (1, 0, 0)), (tp, (1, 1, 0))]
    )


def vertical_2x2():
    m = vehicle.make_r_module(np.eye(3))
    return vehicle.assemble_structure(
        [(m, c) for c in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]]
    )


def test_single_r_module_has_four_dof():
    an = actuation.analyze_structure(single_r(np.pi / 18))
    assert an.rank_force == 1
    assert an.dependent_force_rows == 0
    assert an.controllable_dof == 4


def test_two_opposed_r_modules_have_five_dof():
    an = actuation.analyze_structure(two_r(np.pi / 6, -np.pi / 6))
    assert an.rank_total == 5
    assert an.controllable_dof == 5


def test_four_t_modules_have_six_dof():
    an = actuation.analyze_structure(four_t_diagonal())
    assert an.controllable_dof == 6


def test_vertical_grid_stays_at_four_dof():
    an = actuation.analyze_structure(vertical_2x2())
    assert an.controllable_dof == 4


def test_single_t_module_dof_four_through_coupling():
    s = vehicle.assemble_structure([(vehicle.make_t_module(np.pi / 4), (0, 0, 0))])
    an = actuation.analyze_structure(s)
    assert an.rank_force == 3
    assert an.dependent_force_rows == 2
    assert an.controllable_dof == 4


def test_dof_equals_rank_of_design_matrix():
    for s in (single_r(np.pi / 18), two_r(np.pi / 6, -np.pi / 6),
              four_t_diagonal(), vertical_2x2()):
        an = actuation.analyze_structure(s)
        assert an.controllable_dof == np.linalg.matrix_rank(s.design_matrix, tol=1e-9)


# one untilted R module without rotor drag: four parallel thrusts give no
# torque about z, so the torque rows have rank 2
FLAT_DRAGLESS = """
modules:
  - kind: R
    cell: [0, 0, 0]
physical:
  drag_to_thrust_m: 0
"""


def test_degenerate_torque_rows_rejected():
    s = config.build_structure(config.parse_config(FLAT_DRAGLESS))
    with pytest.raises(DegenerateStructure, match="torque rows have rank 2 < 3"):
        actuation.analyze_structure(s)


def test_f_frame_single_tilted_module():
    s = single_r(np.pi / 18)
    rf = actuation.analyze_structure(s).f_frame
    assert np.max(np.abs(rf - geometry.rot_principal("y", np.pi / 18))) < 1e-9


def test_f_frame_opposed_pair_aligns_with_structure():
    s = two_r(np.pi / 6, -np.pi / 6)
    rf = actuation.analyze_structure(s).f_frame
    assert np.max(np.abs(rf - np.eye(3))) < 1e-9


def test_f_frame_vertical_quadrotor_is_identity():
    s = single_r(0.0)
    assert np.max(np.abs(actuation.analyze_structure(s).f_frame - np.eye(3))) < 1e-12


def test_f_frame_four_t_tie_resolves_to_identity():
    s = four_t_diagonal()
    an = actuation.analyze_structure(s)
    assert an.tie_broken
    assert np.max(np.abs(an.f_frame - np.eye(3))) < 1e-9
    # sigma2 = sigma3 for this symmetric layout
    assert an.singular_values[1] == pytest.approx(an.singular_values[2], abs=1e-12)


def test_f_frame_top_tie_resolves_to_identity():
    # two modules tilted +-45 deg give sigma1 = sigma2
    s = two_r(np.pi / 4, -np.pi / 4)
    an = actuation.analyze_structure(s)
    assert an.tie_broken
    assert an.singular_values[0] == pytest.approx(an.singular_values[1], abs=1e-12)
    assert np.max(np.abs(an.f_frame - np.eye(3))) < 1e-9


def test_f_frame_outputs_are_rotations():
    rng = np.random.default_rng(17)
    for _ in range(50):
        angles = rng.uniform(-0.6, 0.6, size=2)
        s = two_r(*angles)
        assert geometry.is_rotation(actuation.analyze_structure(s).f_frame)


@pytest.mark.parametrize("structure", [
    single_r(np.pi / 18), two_r(np.pi / 6, -np.pi / 6), four_t_diagonal(), vertical_2x2(),
], ids=["single_r", "two_r", "four_t", "vertical"])
def test_analyze_structure_decomposes_each_block_once(monkeypatch, structure):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    an = actuation.analyze_structure(structure)
    n = structure.n_rotors
    assert sorted(calls) == [(3, n), (3, n), (6, n)]
    assert np.allclose(an.force_axes @ np.diag(an.force_sigma) ** 2 @ an.force_axes.T,
                       structure.design_matrix[:3] @ structure.design_matrix[:3].T)


def test_applicability_examples():
    gentle = two_r(-np.pi / 6, np.pi / 6)
    assert actuation.applicability(gentle, actuation.analyze_structure(gentle).f_frame)
    obtuse = two_r(np.pi / 3, -np.pi / 3)
    assert not actuation.applicability(obtuse, actuation.analyze_structure(obtuse).f_frame)
    hover = single_r(0.0)
    assert actuation.applicability(hover, actuation.analyze_structure(hover).f_frame)


def old_dimensioning_matrix(dof):
    """The 0/1 row selector that `wrench_rows` replaced, kept as the
    reference its rows must reproduce."""
    if dof == 4:
        return np.hstack([np.zeros((4, 2)), np.eye(4)])
    if dof == 5:
        top = np.concatenate([[1.0, 0.0], np.zeros(4)])
        return np.vstack([top, np.hstack([np.zeros((4, 2)), np.eye(4)])])
    return np.eye(6)


def dimensioning(dof):
    """The 0/1 matrix whose rows pick the wrench rows `wrench_rows(dof)`."""
    return np.eye(6)[actuation.wrench_rows(dof)]


def test_dimensioning_matrices_exact():
    for dof in (4, 5, 6):
        assert actuation.wrench_rows(dof).dtype.kind == "i"
    d4 = dimensioning(4)
    assert d4.shape == (4, 6)
    assert np.array_equal(d4, np.hstack([np.zeros((4, 2)), np.eye(4)]))
    d5 = dimensioning(5)
    assert d5.shape == (5, 6)
    expected5 = np.zeros((5, 6))
    expected5[0, 0] = 1.0
    expected5[1:, 2:] = np.eye(4)
    assert np.array_equal(d5, expected5)
    assert np.array_equal(dimensioning(6), np.eye(6))
    with pytest.raises(InvalidDOF):
        actuation.wrench_rows(3)


def test_allocate_zero_wrench():
    s = four_t_diagonal()
    an = actuation.analyze_structure(s)
    u = control.Controller(s, an).allocate(np.zeros(6))
    assert np.allclose(u, 0.0)


def test_allocate_hover_four_t_structure():
    s = four_t_diagonal()
    an = actuation.analyze_structure(s)
    a_f = actuation.design_in_f_frame(s.design_matrix, an.f_frame)
    w = np.array([0.0, 0.0, s.mass * 9.81, 0.0, 0.0, 0.0])
    u = control.Controller(s, an).allocate(w)
    expected = s.mass * 9.81 / (16 * np.cos(np.pi / 4))
    assert np.max(np.abs(u - expected)) < 1e-9
    assert np.max(np.abs(a_f @ u - w)) < 1e-9


def test_allocate_hover_vertical_quadrotor():
    s = single_r(0.0)
    an = actuation.analyze_structure(s)
    w = np.array([0.0, 0.0, s.mass * 9.81, 0.0, 0.0, 0.0])
    u = control.Controller(s, an).allocate(w)
    assert np.allclose(u, s.mass * 9.81 / 4)


def test_allocation_exact_for_six_dof():
    s = four_t_diagonal()
    an = actuation.analyze_structure(s)
    a_f = actuation.design_in_f_frame(s.design_matrix, an.f_frame)
    controller = control.Controller(s, an)
    rng = np.random.default_rng(23)
    for _ in range(1000):
        w = rng.normal(size=6)
        u = controller.allocate(w)
        assert np.linalg.norm(a_f @ u - w) < 1e-8 * np.linalg.norm(w)


def fixture_structure(name):
    cfg = config.load_config(FIXTURES / f"{name}.cfg")
    return cfg, config.build_structure(cfg)


@pytest.fixture(scope="module")
def fixture_controllers():
    """Controllers of exp1, exp2 and exp4 (4, 5 and 6 DOF) with their
    0/1 dimensioning matrix and thrust-frame design matrix."""
    controllers = {}
    for name in ("exp1", "exp2", "exp4"):
        cfg, s = fixture_structure(name)
        an = actuation.analyze_structure(s, f_max=cfg.physical.f_max_n)
        a_f = actuation.design_in_f_frame(s.design_matrix, an.f_frame)
        controllers[an.controllable_dof] = (control.Controller(s, an),
                                            old_dimensioning_matrix(an.controllable_dof), a_f)
    return controllers


@settings(max_examples=100, deadline=None)
@given(dof=st.sampled_from([4, 5, 6]),
       w=arrays(np.float64, 6, elements=st.floats(-1e6, 1e6)))
def test_allocation_selects_rows_exactly(fixture_controllers, dof, w):
    # selecting the dimensioned rows is the 0/1 matrix product, bit for bit
    controller, d, a_f = fixture_controllers[dof]
    expected = np.linalg.pinv(d @ a_f) @ (d @ w)
    assert controller.allocate(w).tobytes() == expected.tobytes()


def test_allocation_is_minimum_norm():
    s = four_t_diagonal()
    an = actuation.analyze_structure(s)
    a_f = actuation.design_in_f_frame(s.design_matrix, an.f_frame)
    reduced = a_f[an.wrench_rows]
    _, _, vt = np.linalg.svd(reduced)
    null_basis = vt[6:]
    controller = control.Controller(s, an)
    rng = np.random.default_rng(29)
    for _ in range(100):
        w = rng.normal(size=6)
        u = controller.allocate(w)
        delta = rng.normal(size=null_basis.shape[0]) @ null_basis
        assert np.linalg.norm(u) <= np.linalg.norm(u + delta) + 1e-12


def test_ellipsoid_bound():
    s = four_t_diagonal()
    a_f = s.design_matrix[:3]
    sigma_max = np.linalg.svd(a_f, compute_uv=False)[0]
    rng = np.random.default_rng(31)
    u = rng.normal(size=(10000, a_f.shape[1]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    norms = np.linalg.norm(u @ a_f.T, axis=1)
    assert np.all(norms <= sigma_max + 1e-12)
    # equality at the top right-singular vector
    _, _, vt = np.linalg.svd(a_f)
    assert abs(np.linalg.norm(a_f @ vt[0]) - sigma_max) < 1e-6


def test_analysis_invariant_under_design_scaling():
    s = two_r(np.pi / 6, -np.pi / 6)
    base = actuation.analyze_structure(s)
    scaled = actuation.analyze_structure(
        dataclasses.replace(s, design_matrix=10.0 * s.design_matrix))
    assert scaled.controllable_dof == base.controllable_dof
    assert np.allclose(scaled.singular_values, base.singular_values)
    assert np.allclose(base.f_frame, scaled.f_frame)


def test_bounded_least_squares_respects_box():
    rng = np.random.default_rng(37)
    a = rng.normal(size=(4, 9))
    b = rng.normal(size=4) * 3.0
    u, res = actuation.bounded_least_squares(a, b, 0.5)
    assert np.all(u >= 0.0) and np.all(u <= 0.5 + 1e-15)
    # residual should match an unconstrained solve when the box is inactive
    free = np.linalg.lstsq(a, b, rcond=None)[0]
    if np.all(free >= 0) and np.all(free <= 0.5):
        assert res == pytest.approx(np.linalg.norm(a @ free - b), abs=1e-8)


def test_pitch_feasibility_boundary_matches_force_budget():
    # closed-form oracle: rotor z-thrust cos(eta), x-thrust sin(eta)/sqrt(2)
    # per newton; at the boundary the 8 forward rotors sit at f_max, so
    # mg sin(t) + mg cos(t)/sqrt(2) = 8 f_max.
    s = four_t_diagonal()
    f_max = 0.645
    mg = s.mass * 9.81
    amplitude = mg * np.sqrt(1.5)
    oracle = np.arcsin(8 * f_max / amplitude) - np.arctan(1 / np.sqrt(2))
    got = actuation.pitch_feasibility_limit(s, f_max=f_max, angle_tol=1e-4)
    assert got == pytest.approx(oracle, abs=5e-4)


def test_pitch_feasibility_boundary_exact_at_fine_tolerance():
    # The solver is exact, so the bisection can be driven far below 1e-4
    # rad; what is left is the 1e-6 m g residual threshold, which moves the
    # boundary by about 1.7e-6 rad past the closed form.
    s = four_t_diagonal()
    f_max = 0.645
    mg = s.mass * 9.81
    oracle = np.arcsin(8 * f_max / (mg * np.sqrt(1.5))) - np.arctan(1 / np.sqrt(2))
    got = actuation.pitch_feasibility_limit(s, f_max=f_max, angle_tol=1e-7)
    assert abs(got - oracle) <= 5e-6


@pytest.mark.parametrize("angle_tol", [0.0, -1.0, np.nan, np.inf])
def test_pitch_feasibility_rejects_invalid_tolerance(angle_tol):
    with pytest.raises(InvalidParams, match="angle_tol"):
        actuation.pitch_feasibility_limit(four_t_diagonal(), f_max=0.645, angle_tol=angle_tol)


def test_pitch_feasibility_ends_below_float_spacing(monkeypatch):
    # 1e-300 is below the spacing of floats near the limit, so the bracket
    # can never get that narrow; the bisection stops once no float lies
    # strictly inside it
    _, s = fixture_structure("exp4")
    f_max = 0.645
    mg = s.mass * 9.81
    oracle = np.arcsin(8 * f_max / (mg * np.sqrt(1.5))) - np.arctan(1 / np.sqrt(2))
    checks = counting(monkeypatch, "static_hover_feasible")
    got = actuation.pitch_feasibility_limit(s, f_max=f_max, angle_tol=1e-300)
    assert abs(got - oracle) <= 5e-6
    assert len(checks) <= 2 + 64


@pytest.mark.parametrize("upper", [np.nan, np.inf, 0.0, -1.0])
def test_invalid_thrust_limit_rejected(upper):
    s = four_t_diagonal()
    with pytest.raises(InvalidParams, match="thrust limit"):
        actuation.bounded_least_squares(s.design_matrix, np.ones(6), upper)
    with pytest.raises(InvalidParams, match="thrust limit"):
        actuation.static_hover_feasible(s, np.eye(3), f_max=upper)


def test_pitch_feasibility_monotone():
    s = four_t_diagonal()
    limit = actuation.pitch_feasibility_limit(s, f_max=0.645, angle_tol=1e-4)
    for theta in np.radians(np.arange(0.0, 50.0, 5.0)):
        att = geometry.rot_principal("y", theta)
        feasible = actuation.static_hover_feasible(s, att, f_max=0.645)
        assert feasible == (theta <= limit)


def test_f_frame_reexpression_preserves_singular_values():
    s = two_r(np.pi / 6, -np.pi / 6)
    rf = actuation.analyze_structure(s).f_frame
    a_f = actuation.design_in_f_frame(s.design_matrix, rf)
    for block in (slice(0, 3), slice(3, 6)):
        before = np.linalg.svd(s.design_matrix[block], compute_uv=False)
        after = np.linalg.svd(a_f[block], compute_uv=False)
        assert np.allclose(before, after, atol=1e-12)


def counting(monkeypatch, name):
    """Replace actuation.<name> with a wrapper that counts its calls."""
    calls = []
    original = getattr(actuation, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(actuation, name, counted)
    return calls


def test_solver_calls_go_through_the_module(monkeypatch):
    # analyze_structure solves once for applicability and once for the
    # hover residual; the obtuse pair fails the rotor-axis Gram check, so
    # only the hover residual is solved. pitch_feasibility_limit asks
    # actuation.static_hover_feasible at every bisection level.
    solves = counting(monkeypatch, "bounded_least_squares")
    actuation.analyze_structure(four_t_diagonal())
    assert len(solves) == 2
    solves.clear()
    actuation.analyze_structure(two_r(np.pi / 3, -np.pi / 3))
    assert len(solves) == 1
    solves.clear()
    checks = counting(monkeypatch, "static_hover_feasible")
    actuation.pitch_feasibility_limit(four_t_diagonal(), f_max=0.645, angle_tol=1e-2)
    assert len(checks) == 2 + int(np.ceil(np.log2(np.pi / 2 / 1e-2)))
    assert len(solves) == len(checks)


# Accelerated projected-gradient solver that the active-set
# bounded_least_squares replaced, kept as the reference it must match or
# beat.


def ref_projected_gradient(a, b, upper, iters=2000):
    lip = np.linalg.norm(a, 2) ** 2
    if lip == 0.0:
        return np.zeros(a.shape[1]), float(np.linalg.norm(b))
    step = 1.0 / lip
    u = np.zeros(a.shape[1])
    y = u.copy()
    t = 1.0
    for _ in range(iters):
        grad = a.T @ (a @ y - b)
        u_next = np.clip(y - step * grad, 0.0, upper)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = u_next + ((t - 1.0) / t_next) * (u_next - u)
        u, t = u_next, t_next
    return u, float(np.linalg.norm(a @ u - b))


def assert_box_minimum(a, b, upper):
    """bounded_least_squares stays in the box, meets the KKT sign
    conditions and does no worse than the projected-gradient reference."""
    u, residual = actuation.bounded_least_squares(a, b, upper)
    assert np.all(u >= 0.0) and np.all(u <= upper)
    assert residual == pytest.approx(np.linalg.norm(a @ u - b), rel=1e-12, abs=1e-15)
    gradient = a.T @ (a @ u - b)
    norm_a = np.linalg.norm(a)
    eps = 1e-10 * norm_a * (np.linalg.norm(b) + norm_a * upper * np.sqrt(a.shape[1]))
    at_zero, at_upper = u == 0.0, u == upper
    assert np.all(gradient[at_zero] >= -eps)
    assert np.all(gradient[at_upper] <= eps)
    assert np.all(np.abs(gradient[~at_zero & ~at_upper]) <= eps)
    assert residual <= ref_projected_gradient(a, b, upper)[1] + 1e-12


@st.composite
def rt_structures(draw):
    cells = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 2, 0), (2, 1, 0)]
    placements = []
    for cell in draw(st.permutations(cells))[:draw(st.integers(1, 6))]:
        if draw(st.booleans()):
            axis = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
            assume(np.linalg.norm(axis) > 0.1)
            tilt = geometry.rodrigues(axis / np.linalg.norm(axis),
                                      draw(st.floats(-1.2, 1.2)))
            module = vehicle.make_r_module(tilt)
        else:
            module = vehicle.make_t_module(draw(st.floats(-1.4, 1.4)))
        yaw = geometry.rot_principal("z", draw(st.floats(-np.pi, np.pi)))
        placements.append(vehicle.ModulePlacement(module, cell, yaw))
    return vehicle.assemble_structure(placements)


@settings(max_examples=60, deadline=None)
@given(structure=rt_structures())
def test_assembly_and_dof_match_module_oracle(structure):
    a = structure.design_matrix
    # each module's columns are its own matrix rotated by its attitude R and
    # moved to its offset d: [R a_f; R a_tau + d x R a_f]
    for i, (placement, d) in enumerate(zip(structure.placements,
                                           structure.module_offsets)):
        r = placement.attitude
        module_a = vehicle.module_design_matrix(placement.module)
        force = r @ module_a[:3]
        expected = np.vstack([force, r @ module_a[3:] + np.cross(d, force.T).T])
        assert np.allclose(a[:, 4 * i:4 * i + 4], expected, rtol=0.0, atol=1e-12)
    # 3 + r_f - (r_t + r_f - r_total) = r_total since the torque rows have rank 3
    an = actuation.analyze_structure(structure)
    rank = np.linalg.matrix_rank(a, tol=actuation.RANK_TOL * np.linalg.norm(a, 2))
    assert an.controllable_dof == an.rank_total == rank
    assert an.dependent_force_rows == an.rank_force + an.rank_torque - rank
    assert geometry.is_rotation(an.f_frame)
    # selecting the kept rows gives the allocation of the 0/1 matrix, bit for bit
    d = old_dimensioning_matrix(an.controllable_dof)
    a_f = actuation.design_in_f_frame(a, an.f_frame)
    assert np.array_equal(np.eye(6)[an.wrench_rows], d)
    assert control.Controller(structure, an)._alloc.tobytes() == np.linalg.pinv(d @ a_f).tobytes()


@settings(max_examples=60, deadline=None)
@given(structure=rt_structures(), roll=st.floats(-1.6, 1.6), pitch=st.floats(-1.6, 1.6),
       f_max=st.floats(0.05, 2.0), force_only=st.booleans())
def test_bounded_least_squares_hover_problems(structure, roll, pitch, f_max, force_only):
    attitude = geometry.rot_principal("x", roll) @ geometry.rot_principal("y", pitch)
    wrench = actuation.hover_wrench(structure.mass, attitude)
    rows = 3 if force_only else 6
    assert_box_minimum(structure.design_matrix[:rows], wrench[:rows], f_max)


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(3, 6), st.integers(1, 64)), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.1, 1.0, 10.0, 100.0]), upper=st.floats(0.01, 5.0))
def test_bounded_least_squares_random_problems(shape, seed, scale, upper):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    b = rng.normal(size=shape[0]) * scale
    assert_box_minimum(a, b, upper)
