"""The per-tick log of a closed-loop run, its CSV file, and tracking metrics.

One CSV row per control tick, in the columns that the fields of
`TelemetryTable` declare. The structure attitude is stored as a unit
quaternion (w, x, y, z) and the setpoint's target attitude by its yaw and
pitch; `sat` counts the rotors whose thrust sits at 0 or `f_max` that
tick, an integer from 0 to the rotor count, which `read_csv` checks.
Floats are written with repr precision so identical runs produce
byte-identical files.

No pass over the rows copies the whole table: `write_csv` encodes
`_BLOCK_ROWS` rows at a time, `read_csv` streams the file's lines into
`np.loadtxt`, and `compute_metrics` copies the window of only the columns
it reads and builds its attitude errors block by block. Almost all of the
write is `repr` of each float, and of the read `np.loadtxt`'s parse, so
both go through `_ordered_map`, the one place that decides where they
run: a log's blocks are encoded one per task and written in order, and a
file of more than one `_SPAN_BYTES` span is parsed one span per task
into one preallocated table. Neither the bytes nor the table depend on
where the tasks ran.
"""

import collections
import contextlib
import io
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry
from .errors import MalformedTelemetry

# rows per block of the passes over a log or a table
_BLOCK_ROWS = 1024
# bytes per span of a CSV that `read_csv` parses in a pool, and per read
# of the pass that counts its lines
_SPAN_BYTES = 1 << 20
_READ_BYTES = 1 << 16


def _logged(first, shape=()):
    """A float field of a Telemetry log, from column `first` of its float
    block on: a view of its rows appended so far."""
    stop = first + math.prod(shape)
    return property(lambda log: log._floats[:log._length, first:stop].reshape(-1, *shape))


class Telemetry:
    """Per-control-tick log of a closed-loop run (uniform time step),
    preallocated for `n_rows` ticks: one float block of 31 + n_rotors
    columns, the fields from `t` to `attitude_d` in `append`'s order and
    then the thrusts, one row per tick. Each field reads as a view of the
    rows appended so far: a diverged run's log holds exactly the ticks it
    reached. `saturated` is derived, not stored: the rotors whose thrust
    sits at 0 or `f_max`."""

    t = _logged(0)
    position = _logged(1, (3,))
    velocity = _logged(4, (3,))
    attitude = _logged(7, (3, 3))
    angular_velocity = _logged(16, (3,))
    position_d = _logged(19, (3,))
    attitude_d = _logged(22, (3, 3))
    u_actual = property(lambda log: log._floats[:log._length, 31:])
    saturated = property(lambda log: _at_bound(log.u_actual, log.f_max))

    def __init__(self, n_rotors, n_rows, f_max):
        self.n_rotors = n_rotors
        self.f_max = f_max
        self.diverged = False
        self._length = 0
        self._floats = np.empty((n_rows, 31 + n_rotors))

    def append(self, t, state, setpoint, thrusts):
        """Log one tick: its 31 state and setpoint floats go in as one flat
        tuple, then the thrusts."""
        (r0, r1, r2), (d0, d1, d2) = state.attitude, setpoint.attitude
        row = self._length
        self._floats[row, :31] = (t, *state.position, *state.velocity, *r0, *r1, *r2,
                                  *state.angular_velocity, *setpoint.position, *d0, *d1, *d2)
        self._floats[row, 31:] = thrusts
        self._length = row + 1

    def __len__(self):
        return self._length


def _at_bound(thrusts, f_max):
    """Which thrusts sit at a motor limit: exactly 0.0 (of either sign) or f_max."""
    return (thrusts == 0.0) | (thrusts == f_max)


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


def _blocks(n_rows):
    """Slices of at most _BLOCK_ROWS consecutive rows covering n_rows."""
    return [slice(start, start + _BLOCK_ROWS) for start in range(0, n_rows, _BLOCK_ROWS)]


def write_csv(telemetry, path):
    """Write one CSV row per control tick of a telemetry log: its float
    columns in TelemetryTable field order, then `sat`, the count of its
    thrusts at a motor limit. The `yaw_d` and `pitch_d` columns are those
    of the target attitudes. Rows are encoded one block at a time, as one
    string per block, where `_ordered_map` decides. Every worker has been
    joined when it returns."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(csv_header(telemetry.n_rotors)) + "\r\n")
        # a pool's workers inherit the log, so a task sends only its row
        # slice and returns one string
        texts = _ordered_map(lambda rows: "".join(_csv_lines(telemetry, rows)),
                             _blocks(len(telemetry)))
        with contextlib.closing(texts):
            handle.writelines(texts)


def _ordered_map(function, tasks):
    """Yield `function(task)` for each of the sequence `tasks`, in order:
    in a pool of `min(len(tasks), os.cpu_count())` forked workers where
    that is 2 or more, on Linux before Python 3.12 (later, forking a
    process with threads, such as numpy's BLAS pool, warns that the child
    may deadlock; on macOS fork is unsafe) and outside a process that
    `multiprocessing` started (a `simulate` config worker's pool already
    shares the CPUs); else in this process. The workers inherit `function`
    with this process's memory, so only tasks and results are pickled, and
    at most one task per worker is submitted ahead of the result yielded.
    Every worker has been joined once the generator is exhausted, closed
    or has raised a worker's exception."""
    workers = min(len(tasks), os.cpu_count() or 1)
    forks = workers > 1 and sys.platform == "linux" and sys.version_info < (3, 12)
    if forks:
        # imported past the cheap checks: importing `concurrent.futures.process`
        # takes about 19 ms, and only a pool needs it
        import multiprocessing
        forks = multiprocessing.parent_process() is None
    if not forks:
        yield from map(function, tasks)
        return
    import concurrent.futures

    tasks = iter(tasks)
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_inherit, initargs=(function,)) as pool:
        pending = collections.deque(pool.submit(_call_inherited, task)
                                    for task in itertools.islice(tasks, workers))
        while pending:
            result = pending.popleft().result()
            task = next(tasks, None)
            if task is not None:
                pending.append(pool.submit(_call_inherited, task))
            yield result


# the function a forked pool worker calls on each task; set only in those processes
_inherited_function = None


def _inherit(function):
    global _inherited_function
    _inherited_function = function


def _call_inherited(task):
    return _inherited_function(task)


def _csv_lines(log, rows):
    """The CSV lines of one block of log rows; its cells are freed once the
    lines have been consumed."""
    thrusts = log.u_actual[rows]
    floats = np.column_stack([
        log.t[rows], log.position[rows], log.velocity[rows],
        rotation_to_quaternion(log.attitude[rows]), log.angular_velocity[rows],
        log.position_d[rows], *geometry.yaw_pitch(log.attitude_d[rows]),
        thrusts]).tolist()
    counts = _at_bound(thrusts, log.f_max).sum(axis=1).tolist()
    return (f"{','.join(map(repr, row))},{count}\r\n" for row, count in zip(floats, counts))


def read_csv(path):
    """Load a telemetry CSV; raises MalformedTelemetry on schema problems.

    The body lines stream through np.loadtxt. A file of more than one
    `_SPAN_BYTES` span is parsed span by span, where `_ordered_map`
    decides: each span's lines are those that start inside it, and their
    rows are copied into one preallocated table in span order. A span that
    does not parse to the rows counted in it, a bare "\\r" line end
    included, sends the read back to one np.loadtxt call in this process
    over all the lines. The file is read once more only to name the line
    at fault. Every worker has been joined when it returns."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline()
        if not header:
            raise MalformedTelemetry("file is empty")
        header = header.rstrip("\n").split(",")
        *fixed, sat = csv_header(0)
        if header[:len(fixed)] != fixed or header[-1] != sat:
            raise MalformedTelemetry("unexpected column layout")
        n_rotors = len(header) - len(fixed) - 1
        if n_rotors < 1 or n_rotors % 4 != 0:
            raise MalformedTelemetry(f"implausible rotor column count {n_rotors}")
        first = handle.readline()
        if not first:
            raise MalformedTelemetry("file has a header but no rows")
        size = os.fstat(handle.fileno()).st_size
        # spans split lines at "\n" only, and np.loadtxt rejects a body line
        # with a bare "\r" in it; the header must end in "\n" too
        data = (_read_spans(path, size, len(header))
                if size > _SPAN_BYTES and handle.newlines in ("\n", "\r\n", ("\n", "\r\n"))
                else None)
        if data is None:
            # `read` counts the lines taken: its next number is their count
            read = itertools.count()
            data = _parse_lines(line for line, _ in zip(itertools.chain([first], handle), read))
            if data is not None and data.shape != (next(read), len(header)):
                data = None  # loadtxt skips blank lines
    if data is None:
        raise MalformedTelemetry(
            f"line {_first_bad_line(path, len(header))} is not {len(header)} "
            "comma-separated numbers")
    counts = data[:, -1]
    bad = np.flatnonzero(~((counts >= 0) & (counts <= n_rotors)
                           & (counts == np.floor(counts))))
    if len(bad):
        raise MalformedTelemetry(f"line {bad[0] + 2} has sat {float(counts[bad[0]])!r}, "
                                 f"not an integer from 0 to {n_rotors}")
    widths = [len(f.metadata["columns"]) or n_rotors for f in fields(TelemetryTable)]
    blocks = np.split(data, np.cumsum(widths)[:-1], axis=1)
    return TelemetryTable(*(b[:, 0] if b.shape[1] == 1 else b for b in blocks))


def _parse_lines(lines):
    """The CSV lines of the iterator `lines` as one 2-D float array, by one
    np.loadtxt call, or None where a line is not numbers. A blank first line
    is at fault: loadtxt skips blank lines, and warns on an all-blank
    input."""
    try:
        first = next(lines, "")
        if not first.strip():
            return None
        return np.loadtxt(itertools.chain([first], lines), delimiter=",",
                          comments=None, ndmin=2)
    except ValueError:  # UnicodeDecodeError included
        return None


def _read_spans(path, size, width):
    """The body rows of a `size`-byte CSV of `width` columns, parsed span
    by span through `_ordered_map` into one table, or None if a span does
    not parse to exactly its rows of `width` numbers. A body line belongs
    to the span its first byte is in."""
    starts = range(0, size, _SPAN_BYTES)
    # the body lines that start before byte b are as many as the "\n"s
    # before b - 1, the header's included; b = size counts them all
    firsts = _newlines_before(path, [max(start - 1, 0) for start in starts] + [size - 1])
    table = np.empty((firsts[-1], width))
    spans = [(start, first, stop) for start, first, stop
             in zip(starts, firsts, firsts[1:]) if stop > first]
    rows = _ordered_map(lambda span: _parse_span(path, *span), spans)
    with contextlib.closing(rows):
        for (_, first, stop), block in zip(spans, rows):
            if block is None or block.shape != (stop - first, width):
                return None
            table[first:stop] = block
    return table


def _newlines_before(path, offsets):
    """The count of "\\n" bytes in the file before each of the ascending
    byte `offsets`, read in small pieces."""
    counts, newlines = [], 0
    with open(path, "rb") as raw:
        for offset in offsets:
            for piece in iter(lambda: raw.read(min(_READ_BYTES, offset - raw.tell())), b""):
                newlines += np.count_nonzero(np.frombuffer(piece, np.uint8) == ord("\n"))
            counts.append(newlines)
    return counts


def _parse_span(path, start, first, stop):
    """The rows of the `stop - first` body lines that start in the span
    from byte `start` on, parsed by `_parse_lines`. The line read from byte
    start - 1 on is the header or ends before the span. The lines are split
    at "\\n" only; where a text-mode read would split one at a bare "\\r",
    np.loadtxt rejects the line ("unquoted embedded newline") as it does
    any "\\r" inside an element, and reads "\\r\\n" as "\\n"."""
    with open(path, "rb") as raw:
        raw.seek(max(start - 1, 0))
        lines = itertools.islice(raw, 1, 1 + stop - first)
        return _parse_lines(line.decode("utf-8") for line in lines)


def _first_bad_line(path, width):
    """Number of the first body line that `_parse_lines` does not read as
    one row of `width` numbers; bytes that are not UTF-8 decode to U+FFFD,
    which no number holds."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        handle.readline()
        for n, line in enumerate(handle, 2):
            row = _parse_lines(iter([line]))
            if row is None or row.shape != (1, width):
                return n


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


def _attitude_errors_deg(quaternion, yaw_d, pitch_d, frame_rotation):
    """Per-axis angle (deg) between the desired and flown thrust frame: the
    arcsine of the vee of 0.5 (m - m^T) with m = desired^T flown, per row."""
    flown = quaternion_to_rotation(quaternion) @ frame_rotation
    cos_p, sin_p = np.cos(pitch_d), np.sin(pitch_d)
    cos_y, sin_y = np.cos(yaw_d), np.sin(yaw_d)
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
    n_rows = len(table.t)
    diverged = not all(np.isfinite(getattr(table, f.name)[rows]).all()
                       for f in fields(table) for rows in _blocks(n_rows))
    mask = table.t >= skip_s
    window_start = float(skip_s)
    if not np.any(mask):
        mask = np.ones(n_rows, dtype=bool)
        window_start = float(table.t[0])
    position, position_d, quaternion, yaw_d, pitch_d, counts = (
        column[mask] for column in (table.position, table.position_d, table.quaternion,
                                    table.yaw_d, table.pitch_d, table.saturated_count))
    pos_error = position - position_d
    att_error = np.concatenate([
        _attitude_errors_deg(quaternion[rows], yaw_d[rows], pitch_d[rows], frame_rotation)
        for rows in _blocks(len(counts))])
    return MetricsReport(
        max_position_error=np.max(np.abs(pos_error), axis=0),
        rms_position_error=np.sqrt(np.mean(pos_error**2, axis=0)),
        max_attitude_error_deg=np.max(np.abs(att_error), axis=0),
        rms_attitude_error_deg=np.sqrt(np.mean(att_error**2, axis=0)),
        saturation_fraction=float(np.mean(counts / table.n_rotors)),
        diverged=diverged,
        window_start=window_start,
        samples=int(len(counts)),
    )
