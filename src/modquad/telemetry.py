"""The per-tick log of a closed-loop run, its CSV file, and tracking metrics.

One CSV row per control tick, in the columns that the fields of
`TelemetryTable` declare. The structure attitude is stored as a unit
quaternion (w, x, y, z) and the setpoint's target attitude by its yaw and
pitch; `sat` counts the rotors whose command hit a motor limit that tick.
Floats are written with repr precision so identical runs produce
byte-identical files.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry
from .errors import MalformedTelemetry


def _logged(name):
    """A field of a Telemetry log: its rows appended so far."""
    return property(lambda log: log._records[name][:log._length])


class Telemetry:
    """Per-control-tick log of a closed-loop run (uniform time step),
    preallocated for `n_rows` ticks. Each field reads as the rows appended
    so far: a diverged run's log holds exactly the ticks it reached."""

    t = _logged("t")
    position = _logged("position")
    velocity = _logged("velocity")
    attitude = _logged("attitude")
    angular_velocity = _logged("angular_velocity")
    position_d = _logged("position_d")
    attitude_d = _logged("attitude_d")
    u_commanded = _logged("u_commanded")
    u_actual = _logged("u_actual")
    saturated = _logged("saturated")

    def __init__(self, n_rotors, n_rows):
        self.n_rotors = n_rotors
        self.diverged = False
        self._length = 0
        self._records = np.empty(n_rows, dtype=[
            ("t", float), ("position", float, 3), ("velocity", float, 3),
            ("attitude", float, (3, 3)), ("angular_velocity", float, 3),
            ("position_d", float, 3), ("attitude_d", float, (3, 3)),
            ("u_commanded", float, n_rotors), ("u_actual", float, n_rotors),
            ("saturated", bool, n_rotors)])

    def append(self, t, state, setpoint, u_cmd, u_actual, saturated):
        self._records[self._length] = (
            t, state.position, state.velocity, state.attitude, state.angular_velocity,
            setpoint.position, setpoint.attitude, u_cmd, u_actual, saturated)
        self._length += 1

    def __len__(self):
        return self._length


def rotation_to_quaternion(r):
    """Unit quaternion (w, x, y, z) of a rotation matrix; an (n, 3, 3)
    stack of rotations gives an (n, 4) array.

    Each rotation takes the usual branch: the trace when it is positive,
    else its largest diagonal entry. Rows are grouped by branch, so a
    branch's square root only sees its own rows. The sign is normalized
    (first non-zero component positive) so the serialization is
    deterministic.
    """
    r = np.asarray(r, dtype=float)
    m = r.reshape(-1, 3, 3)
    c = m.transpose(1, 2, 0)  # c[i, j] is entry (i, j) of every rotation, a view
    trace = c[0, 0] + c[1, 1] + c[2, 2]
    # -1 for the trace branch, else the index of the pivot diagonal entry;
    # a NaN rotation fails every comparison and lands on pivot 2
    pivot = np.where(trace > 0.0, -1, np.where(
        (c[0, 0] > c[1, 1]) & (c[0, 0] > c[2, 2]), 0, np.where(c[1, 1] > c[2, 2], 1, 2)))
    q = np.empty((len(m), 4))
    for branch in (-1, 0, 1, 2):
        rows = np.flatnonzero(pivot == branch)
        if branch < 0:
            s = np.sqrt(trace[rows] + 1.0) * 2.0
            q[rows, 0] = 0.25 * s
            q[rows, 1] = (c[2, 1, rows] - c[1, 2, rows]) / s
            q[rows, 2] = (c[0, 2, rows] - c[2, 0, rows]) / s
            q[rows, 3] = (c[1, 0, rows] - c[0, 1, rows]) / s
            continue
        # pivot i, the others j < k; w's term is c[b, a] - c[a, b] with
        # (a, b) the two indices after i in cyclic order
        i, j, k = branch, *(n for n in (0, 1, 2) if n != branch)
        a, b = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(1.0 + c[i, i, rows] - c[j, j, rows] - c[k, k, rows]) * 2.0
        q[rows, 0] = (c[b, a, rows] - c[a, b, rows]) / s
        q[rows, 1 + i] = 0.25 * s
        q[rows, 1 + j] = (c[i, j, rows] + c[j, i, rows]) / s
        q[rows, 1 + k] = (c[i, k, rows] + c[k, i, rows]) / s
    # q . q per row through the same dot product np.linalg.norm takes
    q /= np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    first = q[np.arange(len(q)), np.argmax(q != 0.0, axis=1)]
    flip = first < 0.0
    q[flip] = -q[flip]
    return q.reshape(r.shape[:-2] + (4,))


def quaternion_to_rotation(q):
    """Rotation matrix of a unit quaternion (w, x, y, z); an (N, 4) array of
    quaternions gives an (N, 3, 3) stack."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.moveaxis(np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]), (0, 1), (-2, -1))


def _columns(*names):
    """TelemetryTable field with its CSV column names; none means u1 .. un."""
    return field(metadata={"columns": names})


@dataclass
class TelemetryTable:
    """CSV columns as arrays, fields in file order; one-column fields are 1-D."""

    t: np.ndarray = _columns("t")
    position: np.ndarray = _columns("rx", "ry", "rz")
    velocity: np.ndarray = _columns("vx", "vy", "vz")
    quaternion: np.ndarray = _columns("qw", "qx", "qy", "qz")
    angular_velocity: np.ndarray = _columns("wx", "wy", "wz")
    position_d: np.ndarray = _columns("rdx", "rdy", "rdz")
    yaw_d: np.ndarray = _columns("yaw_d")
    pitch_d: np.ndarray = _columns("pitch_d")
    thrusts: np.ndarray = _columns()
    saturated_count: np.ndarray = _columns("sat")

    @property
    def n_rotors(self):
        return self.thrusts.shape[1]


def csv_header(n_rotors):
    rotors = [f"u{i + 1}" for i in range(n_rotors)]
    return [name for f in fields(TelemetryTable) for name in f.metadata["columns"] or rotors]


def write_csv(telemetry, path):
    """Write one CSV row per control tick of a telemetry log: its float
    columns in TelemetryTable field order, then the saturation count. The
    `yaw_d` and `pitch_d` columns are those of the target attitudes."""
    rows = np.column_stack([
        telemetry.t, telemetry.position, telemetry.velocity,
        rotation_to_quaternion(telemetry.attitude),
        telemetry.angular_velocity, telemetry.position_d,
        *geometry.yaw_pitch(telemetry.attitude_d), telemetry.u_actual]).tolist()
    counts = telemetry.saturated.sum(axis=1).tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(csv_header(telemetry.n_rotors)) + "\r\n")
        handle.writelines(f"{','.join(map(repr, row))},{count}\r\n"
                          for row, count in zip(rows, counts))


def read_csv(path):
    """Load a telemetry CSV; raises MalformedTelemetry on schema problems."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline()
        lines = handle.readlines()
    if not header:
        raise MalformedTelemetry("file is empty")
    header = header.rstrip("\n").split(",")
    *fixed, sat = csv_header(0)
    if header[:len(fixed)] != fixed or header[-1] != sat:
        raise MalformedTelemetry("unexpected column layout")
    n_rotors = len(header) - len(fixed) - 1
    if n_rotors < 1 or n_rotors % 4 != 0:
        raise MalformedTelemetry(f"implausible rotor column count {n_rotors}")
    if not lines:
        raise MalformedTelemetry("file has a header but no rows")
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    # loadtxt skips blank lines; the shape check catches them
    if data is None or data.shape != (len(lines), len(header)):
        bad = next(n for n, line in enumerate(lines, 2) if not _is_row(line, len(header)))
        raise MalformedTelemetry(f"line {bad} is not {len(header)} comma-separated numbers")
    widths = [len(f.metadata["columns"]) or n_rotors for f in fields(TelemetryTable)]
    blocks = np.split(data, np.cumsum(widths)[:-1], axis=1)
    return TelemetryTable(*(b[:, 0] if b.shape[1] == 1 else b for b in blocks))


def _is_row(line, width):
    """Whether a CSV body line is `width` numbers; a blank line is not."""
    try:
        return (line.count(",") == width - 1
                and np.loadtxt([line], delimiter=",", comments=None).size == width)
    except ValueError:
        return False


@dataclass
class MetricsReport:
    """Per-axis tracking errors over the post-transient window."""

    max_position_error: np.ndarray
    rms_position_error: np.ndarray
    max_attitude_error_deg: np.ndarray
    rms_attitude_error_deg: np.ndarray
    saturation_fraction: float
    diverged: bool
    window_start: float
    samples: int


def _attitude_errors_deg(table, frame_rotation):
    """Per-axis angle (deg) between the desired and flown thrust frame: the
    arcsine of the vee of 0.5 (m - m^T) with m = desired^T flown, per row."""
    flown = quaternion_to_rotation(table.quaternion) @ frame_rotation
    cos_p, sin_p = np.cos(table.pitch_d), np.sin(table.pitch_d)
    cos_y, sin_y = np.cos(table.yaw_d), np.sin(table.yaw_d)
    zero = np.zeros_like(cos_p)
    desired = np.moveaxis(np.array([
        [cos_y * cos_p, -sin_y, cos_y * sin_p],
        [sin_y * cos_p, cos_y, sin_y * sin_p],
        [-sin_p, zero, cos_p],
    ]), (0, 1), (-2, -1))
    m = np.swapaxes(desired, 1, 2) @ flown
    s = 0.5 * (m - np.swapaxes(m, 1, 2))
    e = np.stack([s[:, 2, 1], s[:, 0, 2], s[:, 1, 0]], axis=1)
    return np.degrees(np.arcsin(np.clip(e, -1.0, 1.0)))


def compute_metrics(table, skip_s=5.0, frame_rotation=None):
    """Tracking metrics over rows with t >= skip_s (all rows, from the
    first row's t, if that window is empty). `frame_rotation` is the
    structure-to-thrust-frame rotation; identity when omitted. Any
    non-finite cell means diverged."""
    frame_rotation = np.eye(3) if frame_rotation is None else frame_rotation
    columns = {f.name: getattr(table, f.name) for f in fields(table)}
    diverged = not all(np.isfinite(column).all() for column in columns.values())
    mask = table.t >= skip_s
    window_start = float(skip_s)
    if not np.any(mask):
        mask = np.ones(len(table.t), dtype=bool)
        window_start = float(table.t[0])
    window = TelemetryTable(**{name: column[mask] for name, column in columns.items()})
    pos_error = window.position - window.position_d
    att_error = _attitude_errors_deg(window, frame_rotation)
    return MetricsReport(
        max_position_error=np.max(np.abs(pos_error), axis=0),
        rms_position_error=np.sqrt(np.mean(pos_error**2, axis=0)),
        max_attitude_error_deg=np.max(np.abs(att_error), axis=0),
        rms_attitude_error_deg=np.sqrt(np.mean(att_error**2, axis=0)),
        saturation_fraction=float(
            np.mean(window.saturated_count / window.n_rotors)
        ),
        diverged=diverged,
        window_start=window_start,
        samples=int(len(window.t)),
    )
