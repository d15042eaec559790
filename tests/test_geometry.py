import numpy as np
import pytest

from modquad import geometry
from modquad.errors import NonUnitAxis, NotSkewSymmetric


def test_hat_zero():
    assert np.array_equal(geometry.hat([0, 0, 0]), np.zeros((3, 3)))


def test_hat_e3():
    expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    assert np.array_equal(geometry.hat([0, 0, 1]), expected)


def test_hat_matches_cross_product():
    v = np.array([1.0, 2.0, 3.0])
    w = np.array([4.0, 5.0, 6.0])
    assert np.allclose(geometry.hat(v) @ w, np.cross(v, w))
    assert np.allclose(geometry.hat(v) @ w, [-3.0, 6.0, -3.0])


def test_vee_zero():
    assert np.array_equal(geometry.vee(np.zeros((3, 3))), np.zeros(3))


def test_vee_hat_roundtrip():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(geometry.vee(geometry.hat(v)), v)


def test_vee_of_rotation_antisymmetric_part():
    r = geometry.rot_principal("z", 0.1)
    got = geometry.vee(0.5 * (r - r.T))
    assert np.allclose(got, [0.0, 0.0, np.sin(0.1)], atol=1e-15)


def test_vee_rejects_non_skew():
    with pytest.raises(NotSkewSymmetric):
        geometry.vee(np.eye(3))


def test_rodrigues_zero_angle_is_identity():
    assert np.allclose(geometry.rodrigues([0, 1, 0], 0.0), np.eye(3))


def test_rodrigues_quarter_turn_about_z():
    r = geometry.rodrigues([0, 0, 1], np.pi / 2)
    assert np.allclose(r @ geometry.E1, geometry.E2)


def test_rodrigues_diagonal_axis_on_e3():
    axis = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    r = geometry.rodrigues(axis, np.pi / 4)
    assert np.allclose(r @ geometry.E3, [0.5, -0.5, np.sqrt(2) / 2])


def test_rodrigues_rejects_non_unit_axis():
    with pytest.raises(NonUnitAxis):
        geometry.rodrigues([1.0, 1.0, 0.0], 0.3)


def test_rot_principal_identity():
    assert np.allclose(geometry.rot_principal("y", 0.0), np.eye(3))


def test_rot_principal_y_on_e3():
    r = geometry.rot_principal("y", np.pi / 18)
    assert np.allclose(r @ geometry.E3, [np.sin(np.pi / 18), 0.0, np.cos(np.pi / 18)])


def test_rot_principal_z_quarter_turn():
    r = geometry.rot_principal("z", np.pi / 2)
    assert np.allclose(r @ geometry.E1, geometry.E2)


def test_rot_principal_matches_rodrigues():
    for axis_id, axis in [("x", geometry.E1), ("y", geometry.E2), ("z", geometry.E3)]:
        assert np.allclose(
            geometry.rot_principal(axis_id, 0.7), geometry.rodrigues(axis, 0.7)
        )


def test_rot_principal_bad_axis():
    with pytest.raises(ValueError):
        geometry.rot_principal("w", 0.1)


def test_so3_exp_zero_rate():
    assert np.array_equal(geometry.so3_exp([0, 0, 0], 1.0), np.eye(3))


def test_so3_exp_axis_aligned():
    assert np.allclose(
        geometry.so3_exp([0, 0, np.pi], 1.0), geometry.rot_principal("z", np.pi)
    )


def test_so3_exp_matches_rodrigues():
    assert np.allclose(
        geometry.so3_exp([0.1, 0, 0], 0.01), geometry.rodrigues(geometry.E1, 0.001)
    )


def test_rotation_outputs_are_valid_rotations():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-2 * np.pi, 2 * np.pi)
        assert geometry.is_rotation(geometry.rodrigues(axis, angle), tol=1e-9)
    for axis_id in "xyz":
        assert geometry.is_rotation(geometry.rot_principal(axis_id, 1.23), tol=1e-9)
    assert geometry.is_rotation(geometry.so3_exp([0.3, -0.2, 0.9], 0.5), tol=1e-9)


def test_is_rotation_checks_every_member_of_a_stack():
    rng = np.random.default_rng(17)
    axes = rng.normal(size=(16, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    stack = np.array([geometry.rodrigues(a, t) for a, t in
                      zip(axes, rng.uniform(-np.pi, np.pi, 16))])
    assert geometry.is_rotation(stack)
    for member in (0, 7, 15):
        reflected, scaled = stack.copy(), stack.copy()
        reflected[member] = reflected[member] @ np.diag([1.0, 1.0, -1.0])
        scaled[member] *= 1.0 + 1e-8
        assert np.linalg.det(reflected[member]) == pytest.approx(-1.0)
        assert not geometry.is_rotation(reflected)
        assert not geometry.is_rotation(scaled)


def test_rodrigues_fixes_its_axis():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-np.pi, np.pi)
        assert np.allclose(geometry.rodrigues(axis, angle) @ axis, axis, atol=1e-12)


def test_vee_hat_identity_on_random_vectors():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        v = rng.normal(size=3) * 10.0
        assert np.max(np.abs(geometry.vee(geometry.hat(v)) - v)) < 1e-12


def test_orthonormalize_recovers_rotation():
    r = geometry.rot_principal("y", 0.4)
    drifted = r + 1e-6 * np.ones((3, 3))
    fixed = geometry.orthonormalize(drifted)
    assert geometry.is_rotation(fixed, tol=1e-12)
    assert np.allclose(fixed, r, atol=1e-5)


def test_so3_exp_negative_rate_inverts():
    forward = geometry.so3_exp([0.3, -0.1, 0.5], 0.2)
    backward = geometry.so3_exp([-0.3, 0.1, -0.5], 0.2)
    assert np.allclose(np.asarray(forward) @ backward, np.eye(3), atol=1e-12)
