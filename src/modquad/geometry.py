"""Rotation-matrix utilities shared by every other module.

One rule holds across the package: the records of the closed-loop tick
(setpoints and vehicle states) hold Python floats, and tables (rotor
arrays, telemetry, analysis results) are numpy arrays. The helpers accept
any 3-vector or 3x3 nested sequence and do their arithmetic on Python
floats: for a single small vector or matrix that is several times cheaper
than numpy's per-call overhead. The tick's helpers (`difference3`, `cross3`,
`matvec3`, `matmul3`, `vee`, `so3_exp`, `orthonormalize`) return floats,
matrices as row-major nested lists; `hat`, `rodrigues`, `rot_principal` and
`yaw_pitch` return numpy arrays. Helpers never mutate their inputs.
"""

import math

import numpy as np

from .errors import NonUnitAxis, NotSkewSymmetric

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

_SKEW_TOL = 1e-9
_UNIT_TOL = 1e-9
_EXP_ANGLE_FLOOR = 1e-12


def hat(v):
    """Skew-symmetric matrix S such that S @ w == np.cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def difference3(a, b):
    """a - b for two 3-vectors, as a list of floats."""
    ax, ay, az = a
    bx, by, bz = b
    return [ax - bx, ay - by, az - bz]


def cross3(a, b):
    """Cross product of two 3-vectors, as a list of floats."""
    ax, ay, az = a
    bx, by, bz = b
    return [ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx]


def matvec3(a, v):
    """Product a @ v of a 3x3 matrix and a 3-vector, as a list of floats."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    x, y, z = v
    return [a00 * x + a01 * y + a02 * z,
            a10 * x + a11 * y + a12 * z,
            a20 * x + a21 * y + a22 * z]


def matmul3(a, b):
    """Product a @ b of two 3x3 matrices, as nested lists of floats."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return [
        [a00 * b00 + a01 * b10 + a02 * b20,
         a00 * b01 + a01 * b11 + a02 * b21,
         a00 * b02 + a01 * b12 + a02 * b22],
        [a10 * b00 + a11 * b10 + a12 * b20,
         a10 * b01 + a11 * b11 + a12 * b21,
         a10 * b02 + a11 * b12 + a12 * b22],
        [a20 * b00 + a21 * b10 + a22 * b20,
         a20 * b01 + a21 * b11 + a22 * b21,
         a20 * b02 + a21 * b12 + a22 * b22],
    ]


def vee(s):
    """Inverse of hat(); raises NotSkewSymmetric beyond a 1e-9 residual
    (Frobenius norm of S + S^T)."""
    (a, b, c), (d, e, f), (g, h, i) = s
    residual = math.sqrt(4.0 * (a * a + e * e + i * i)
                         + 2.0 * ((b + d) ** 2 + (c + g) ** 2 + (f + h) ** 2))
    if residual >= _SKEW_TOL:
        raise NotSkewSymmetric(f"residual {residual:.3e}")
    return [0.5 * (h - f), 0.5 * (c - g), 0.5 * (d - b)]


def rodrigues(axis, angle):
    """Rotation by `angle` about the unit vector `axis`.

    R = I + sin(angle) P + (1 - cos(angle)) P^2 with P = hat(axis).
    """
    x, y, z = axis
    norm = math.hypot(x, y, z)
    if abs(norm - 1.0) > _UNIT_TOL:
        raise NonUnitAxis(f"|axis| = {norm:.12f}")
    return np.array(_rodrigues(x, y, z, angle))


def _rodrigues(x, y, z, angle):
    """Rodrigues' formula for the unit axis (x, y, z), with hat(axis)^2
    written out entry by entry, as nested lists."""
    s, c = math.sin(angle), 1.0 - math.cos(angle)
    xy, xz, yz = c * x * y, c * x * z, c * y * z
    return [
        [1.0 - c * (y * y + z * z), xy - s * z, xz + s * y],
        [xy + s * z, 1.0 - c * (x * x + z * z), yz - s * x],
        [xz - s * y, yz + s * x, 1.0 - c * (x * x + y * y)],
    ]


def rot_principal(axis_id, angle):
    """Principal rotation about the x-, y-, or z-axis."""
    c, s = np.cos(angle), np.sin(angle)
    if axis_id == "x":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis_id == "y":
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if axis_id == "z":
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError(f"axis_id must be 'x', 'y' or 'z', got {axis_id!r}")


def so3_exp(omega, dt):
    """Rotation, as nested lists, reached by spinning at body rate `omega` for `dt` s.

    Returns the identity below an angle of 1e-12 rad, which avoids the
    division by zero with error far under machine precision.
    """
    x, y, z = omega
    speed = math.hypot(x, y, z)
    angle = speed * dt
    if abs(angle) < _EXP_ANGLE_FLOOR:
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    return _rodrigues(x / speed, y / speed, z / speed, angle)


def orthonormality_drift(r):
    """Frobenius distance of R^T R from the identity."""
    (a, b, c), (d, e, f), (g, h, i) = r
    # entries of R^T R - I; each off-diagonal one appears twice
    xx = a * a + d * d + g * g - 1.0
    yy = b * b + e * e + h * h - 1.0
    zz = c * c + f * f + i * i - 1.0
    xy = a * b + d * e + g * h
    xz = a * c + d * f + g * i
    yz = b * c + e * f + h * i
    return math.sqrt(xx * xx + yy * yy + zz * zz
                     + 2.0 * (xy * xy + xz * xz + yz * yz))


def orthonormalize(r):
    """Nearest rotation matrix (Frobenius polar projection), as nested lists."""
    u, _, vt = np.linalg.svd(np.asarray(r, dtype=float))
    out = u @ vt
    if np.linalg.det(out) < 0.0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        out = u @ vt
    return out.tolist()


def yaw_pitch(r):
    """Yaw and pitch (rad) of a rotation, or of each of an (n, 3, 3) stack:
    the Z-Y-X Euler angles of its x-axis."""
    r = np.asarray(r, dtype=float)
    return (np.arctan2(r[..., 1, 0], r[..., 0, 0]),
            np.arcsin(np.clip(-r[..., 2, 0], -1.0, 1.0)))


def is_rotation(r, tol=1e-9):
    """True when R is orthonormal with determinant +1 within `tol`."""
    r = np.asarray(r, dtype=float).tolist()
    (a, b, c), (d, e, f), (g, h, i) = r
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return orthonormality_drift(r) < tol and abs(det - 1.0) < tol
