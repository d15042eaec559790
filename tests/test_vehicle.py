import numpy as np
import pytest

from modquad import geometry, vehicle
from modquad.errors import EmptyStructure, InvalidParams, OverlappingModules


def test_r_module_identity_is_traditional_quadrotor():
    m = vehicle.make_r_module(np.eye(3))
    assert m.kind == "R"
    for orientation in m.orientations:
        assert np.allclose(orientation @ geometry.E3, geometry.E3)
    a = m.arm
    expected = [(a, a, 0), (a, -a, 0), (-a, -a, 0), (-a, a, 0)]
    for position, pos in zip(m.positions, expected):
        assert np.allclose(position, pos)
    assert m.spin_signs.tolist() == [1, -1, 1, -1]


def test_r_module_shared_tilt():
    rstar = geometry.rot_principal("y", np.pi / 18)
    m = vehicle.make_r_module(rstar)
    for orientation in m.orientations:
        assert np.allclose(orientation, rstar)


def test_t_module_zero_eta_is_traditional_quadrotor():
    m = vehicle.make_t_module(0.0)
    for orientation in m.orientations:
        assert np.allclose(orientation, np.eye(3))


def test_t_module_tilt_pattern():
    eta = np.pi / 4
    m = vehicle.make_t_module(eta)
    signs = [1, -1, 1, -1]
    for position, orientation, s in zip(m.positions, m.orientations, signs):
        axis = position / np.linalg.norm(position)
        assert np.allclose(orientation, geometry.rodrigues(axis, s * eta))


def test_t_module_rejects_steep_tilt():
    with pytest.raises(InvalidParams):
        vehicle.make_t_module(np.pi / 2)


def test_r_module_torque_balance():
    rstar = geometry.rot_principal("y", np.pi / 6)
    report = vehicle.check_torque_balance(vehicle.make_r_module(rstar))
    assert report.balanced
    assert report.thrust_magnitude == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(report.thrust_direction, rstar @ geometry.E3)


def test_t_module_torque_balance():
    eta = np.pi / 4
    report = vehicle.check_torque_balance(vehicle.make_t_module(eta))
    assert report.balanced
    assert report.thrust_magnitude == pytest.approx(4.0 * np.cos(eta), abs=1e-12)
    assert report.thrust_magnitude == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)
    assert np.allclose(report.thrust_direction, geometry.E3)


def test_single_tilted_rotor_breaks_balance():
    base = vehicle.make_r_module(np.eye(3))
    orientations = base.orientations.copy()
    axis = base.positions[0] / np.linalg.norm(base.positions[0])
    orientations[0] = geometry.rodrigues(axis, np.pi / 6)
    lopsided = vehicle.ModuleSpec("custom", base.positions, orientations,
                                  base.spin_signs)
    report = vehicle.check_torque_balance(lopsided)
    assert not report.balanced
    assert np.linalg.norm(report.residual_torque) > 1e-3


def test_constructed_modules_balance_within_tolerance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rstar = geometry.rodrigues(axis, rng.uniform(-1.0, 1.0))
        assert vehicle.check_torque_balance(vehicle.make_r_module(rstar)).balanced
        eta = rng.uniform(-np.pi / 3, np.pi / 3)
        assert vehicle.check_torque_balance(vehicle.make_t_module(eta)).balanced


def test_single_module_structure():
    m = vehicle.make_r_module(np.eye(3))
    s = vehicle.assemble_structure([(m, (0, 0, 0))])
    assert s.mass == pytest.approx(m.mass)
    assert np.allclose(s.inertia, m.cuboid_inertia())
    assert np.allclose(s.module_offsets, 0.0)
    assert s.n_rotors == 4


def test_four_module_grid_mass_and_com():
    m = vehicle.make_t_module(np.pi / 4)
    cells = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    s = vehicle.assemble_structure([(m, c) for c in cells])
    assert s.mass == pytest.approx(0.54)
    # center of mass sits at the grid center
    sx, sy, _ = m.body_size
    assert np.allclose(s.com, [sx / 2, sy / 2, 0.0])
    assert np.allclose((np.array([p.module.mass for p in s.placements])
                        @ s.module_offsets), 0.0, atol=1e-12)


def test_parallel_axis_theorem_two_modules_along_x():
    m = vehicle.make_r_module(np.eye(3))
    s = vehicle.assemble_structure([(m, (0, 0, 0)), (m, (0, 1, 0))])
    d = m.body_size[0]
    expected_jyy = 2 * m.cuboid_inertia()[1, 1] + 2 * m.mass * (d / 2) ** 2
    assert s.inertia[1, 1] == pytest.approx(expected_jyy, rel=1e-12)


def test_com_offsets_sum_to_zero_random_grids():
    rng = np.random.default_rng(5)
    m = vehicle.make_t_module(0.3)
    for _ in range(20):
        cells = {(int(rng.integers(0, 4)), int(rng.integers(0, 4)), 0)
                 for _ in range(rng.integers(1, 8))}
        s = vehicle.assemble_structure([(m, c) for c in cells])
        masses = np.array([p.module.mass for p in s.placements])
        assert np.max(np.abs(masses @ s.module_offsets)) < 1e-12


def test_empty_structure_rejected():
    with pytest.raises(EmptyStructure):
        vehicle.assemble_structure([])


def test_duplicate_cell_rejected():
    m = vehicle.make_r_module(np.eye(3))
    with pytest.raises(OverlappingModules):
        vehicle.assemble_structure([(m, (0, 0, 0)), (m, (0, 0, 0))])


def test_design_matrix_vertical_quadrotor_column():
    m = vehicle.make_r_module(np.eye(3), arm=0.1, k_m=0.016)
    s = vehicle.assemble_structure([(m, (0, 0, 0))])
    col = s.design_matrix[:, 0]
    assert np.allclose(col, [0.0, 0.0, 1.0, 0.1, -0.1, 0.016])


def test_design_matrix_r_module_force_rows_rank_one():
    m = vehicle.make_r_module(geometry.rot_principal("y", np.pi / 9))
    s = vehicle.assemble_structure([(m, (0, 0, 0))])
    force_rows = s.design_matrix[:3]
    assert np.linalg.matrix_rank(force_rows, tol=1e-9) == 1


def test_design_matrix_single_module_matches_module_matrix():
    m = vehicle.make_t_module(0.4)
    s = vehicle.assemble_structure([(m, (0, 0, 0))])
    assert np.allclose(s.design_matrix, vehicle.module_design_matrix(m))


def test_balanced_module_wrench_at_unit_input():
    for module in (vehicle.make_r_module(geometry.rot_principal("y", 0.5)),
                   vehicle.make_t_module(0.6)):
        a = vehicle.module_design_matrix(module)
        wrench = a @ np.ones(4)
        report = vehicle.check_torque_balance(module)
        assert np.linalg.norm(wrench[3:]) < 1e-9
        assert np.allclose(
            wrench[:3], report.thrust_magnitude * report.thrust_direction
        )


def test_module_yaw_placement_rotates_rotors():
    m = vehicle.make_r_module(geometry.rot_principal("y", 0.2))
    yaw = geometry.rot_principal("z", np.pi / 2)
    s = vehicle.assemble_structure([vehicle.ModulePlacement(m, (0, 0, 0), yaw)])
    assert np.allclose(s.rotor_axes[0], yaw @ m.orientations[0] @ geometry.E3)
    assert np.allclose(s.rotor_positions[0], yaw @ m.positions[0])


def test_r_kind_requires_shared_orientation():
    base = vehicle.make_r_module(np.eye(3))
    orientations = base.orientations.copy()
    orientations[1] = geometry.rot_principal("y", 0.2)
    with pytest.raises(InvalidParams):
        vehicle.ModuleSpec("R", base.positions, orientations, base.spin_signs)


def test_t_kind_requires_alternating_tilt_pattern():
    t = vehicle.make_t_module(0.4)
    broken = t.orientations.copy()
    axis = t.positions[1] / np.linalg.norm(t.positions[1])
    broken[1] = geometry.rodrigues(axis, 0.4)
    with pytest.raises(InvalidParams):
        vehicle.ModuleSpec("T", t.positions, broken, t.spin_signs)
    # the well-formed pattern still constructs
    vehicle.ModuleSpec("T", t.positions, t.orientations, t.spin_signs)


@pytest.mark.parametrize("rotor1", [
    lambda arm: geometry.rot_principal("y", -0.4),  # turned about another axis
    lambda arm: geometry.rodrigues(arm, 0.4),  # tilt sign does not alternate
    lambda arm: geometry.rodrigues(arm, -0.5),  # tilt angle differs
])
def test_t_kind_rejects_each_broken_tilt_property(rotor1):
    t = vehicle.make_t_module(0.4)
    broken = t.orientations.copy()
    broken[1] = rotor1(t.positions[1] / np.linalg.norm(t.positions[1]))
    with pytest.raises(InvalidParams, match="alternating"):
        vehicle.ModuleSpec("T", t.positions, broken, t.spin_signs)
    # a yawed copy of the pattern is still a T module
    yaw = geometry.rot_principal("z", 0.3)
    vehicle.ModuleSpec("T", t.positions @ yaw.T, yaw @ t.orientations @ yaw.T,
                       t.spin_signs)


def test_unknown_kind_rejected():
    m = vehicle.make_r_module(np.eye(3))
    with pytest.raises(InvalidParams):
        vehicle.ModuleSpec("Q", m.positions, m.orientations, m.spin_signs)


def _edited(**arrays):
    m = vehicle.make_r_module(np.eye(3))
    table = {"positions": m.positions.copy(), "orientations": m.orientations.copy(),
             "spin_signs": list(m.spin_signs)}
    table.update(arrays)
    return table


@pytest.mark.parametrize("table", [
    _edited(positions=np.array([[0.05, 0.05, 0.01], [0.05, -0.05, 0.0],
                                [-0.05, -0.05, 0.0], [-0.05, 0.05, 0.0]])),
    _edited(positions=np.array([[0.05, 0.05, 0.0], [0.05, -0.05, 0.0],
                                [-0.05, -0.04, 0.0], [-0.05, 0.05, 0.0]])),
    _edited(spin_signs=[1, -1, 2, -1]),
    _edited(spin_signs=[True, -1, 1, -1]),
    _edited(orientations=np.array([np.eye(3)] * 3 + [np.diag([1.0, 1.0, -1.0])])),
    _edited(orientations=np.array([np.eye(3)] * 3)),
], ids=["off_plane", "not_square", "spin_two", "spin_bool", "reflection",
        "three_rotors"])
def test_malformed_rotor_table_rejected(table):
    with pytest.raises(InvalidParams):
        vehicle.ModuleSpec("custom", **table)


@pytest.mark.parametrize("rotor", range(4))
@pytest.mark.parametrize("bad", [
    np.diag([1.0, 1.0, -1.0]),
    (1.0 + 1e-8) * np.eye(3),
], ids=["reflection", "scaled"])
def test_module_rejects_a_bad_orientation_at_each_rotor(rotor, bad):
    orientations = np.array([np.eye(3)] * 4)
    orientations[rotor] = bad
    with pytest.raises(InvalidParams, match="not a rotation matrix"):
        vehicle.ModuleSpec("custom", **_edited(orientations=orientations))


@pytest.mark.parametrize("attitude", [
    np.diag([1.0, 1.0, -1.0]),
    1.01 * geometry.rot_principal("z", 0.3),
], ids=["reflection", "scaled_rotation"])
def test_placement_attitude_must_be_rotation(attitude):
    m = vehicle.make_r_module(np.eye(3))
    placements = [vehicle.ModulePlacement(m, (0, 0, 0)),
                  vehicle.ModulePlacement(m, (0, 1, 0), attitude)]
    with pytest.raises(InvalidParams, match="attitude is not a rotation"):
        vehicle.assemble_structure(placements)


def test_modules_must_share_body_size():
    small = vehicle.make_r_module(np.eye(3))
    tall = vehicle.make_r_module(np.eye(3), body_size=(0.15, 0.15, 0.08))
    with pytest.raises(InvalidParams, match="share body dimensions"):
        vehicle.assemble_structure([(small, (0, 0, 0)), (tall, (0, 1, 0))])


def test_cells_beyond_the_grid_bound_rejected():
    m = vehicle.make_r_module(np.eye(3))
    edge = vehicle.MAX_CELL
    vehicle.assemble_structure([(m, (edge, 0, 0)), (m, (edge - 1, 0, 0))])
    with pytest.raises(InvalidParams, match="grid cells"):
        vehicle.assemble_structure([(m, (0, 0, 0)), (m, (0, -edge - 1, 0))])


@pytest.mark.parametrize("cell", [(0.5, 0, 0), (1.0, 0, 0), (True, 0, 0), (0, 0)])
def test_placement_cell_must_hold_three_integers(cell):
    # assembly used to truncate (0.5, 0, 0) to (0, 0, 0)
    m = vehicle.make_r_module(np.eye(3))
    with pytest.raises(InvalidParams, match="three integers"):
        vehicle.assemble_structure([(m, cell)])


def test_rotor_torque_is_np_cross_bit_for_bit():
    # signed zeros and magnitudes from 1e-300 to 1e300, overflow included
    rng = np.random.default_rng(7)
    for n in (1, 4, 12, 64):
        positions, orientations = (
            rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
            for size in ((n, 3), (n, 3, 3)))
        positions[rng.random((n, 3)) < 0.2] = 0.0
        positions[rng.random((n, 3)) < 0.2] = -0.0
        orientations[rng.random((n, 3, 3)) < 0.2] = -0.0
        spins, k_m = rng.choice([-1.0, 1.0], n), rng.uniform(0.0, 0.1, n)
        with np.errstate(all="ignore"):
            axes, torque, drag = vehicle.rotor_wrenches(positions, orientations, spins, k_m)
            expected = np.cross(positions, orientations @ geometry.E3)
        assert torque.shape == expected.shape and torque.flags.c_contiguous
        assert torque.tobytes() == expected.tobytes()
        assert np.array_equal(axes, orientations @ geometry.E3)


def test_a_checked_cell_passes_again_unchanged():
    cell = vehicle.grid_cell([1, -2, vehicle.MAX_CELL])
    assert cell == (1, -2, vehicle.MAX_CELL) and vehicle.grid_cell(cell) is cell
    assert vehicle.grid_cell((np.int64(3), 0, 0)) == (3, 0, 0)
    assert type(vehicle.grid_cell((np.int64(3), 0, 0))[0]) is int
    with pytest.raises(InvalidParams, match="grid cells"):
        vehicle.grid_cell((0, vehicle.MAX_CELL + 1, 0))
    for bad in ((0, 0, 1.0), (0, False, 0), (0, 0, 0, 0), [0, 0]):
        with pytest.raises(InvalidParams, match="three integers"):
            vehicle.grid_cell(bad)
