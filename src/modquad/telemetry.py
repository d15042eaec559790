"""The per-tick log of a closed-loop run, its CSV file, and tracking metrics.

One CSV row per control tick, in the columns that the fields of
`TelemetryTable` declare. The structure attitude is stored as a unit
quaternion (w, x, y, z) and the setpoint's target attitude by its yaw and
pitch; `sat` counts the rotors whose thrust sits at 0 or `f_max` that
tick, an integer from 0 to the rotor count, which `read_csv` checks.
Floats are written with repr precision so identical runs produce
byte-identical files.

No pass over the rows copies the whole table. A flight forks one encoder
(`Telemetry.encoding`) that turns its rows into text on a spare CPU; the
rest of the write, and the read of a file of more than one `_SPAN_BYTES`
span, run in even shares through `_ordered_map`. Neither the bytes nor the
table depend on where the work ran.
"""

import contextlib
import functools
import gc
import itertools
import math
import mmap
import os
import select
import shutil
import signal
import struct
import sys
import tempfile
import weakref
from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry
from .errors import MalformedTelemetry

# rows per block of the passes over a log or a table
_BLOCK_ROWS = 1024
# bytes per span of a CSV that `read_csv` parses span by span, and per read
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
    sits at 0 or `f_max`.

    The float block lives in an anonymous shared mapping, so a process
    forked from the flight sees the rows appended after the fork; that is
    how `encoding`'s encoder reads them."""

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
        width = 31 + n_rotors
        shared = mmap.mmap(-1, max(8 * n_rows * width, 1))  # a mapping holds a byte or more
        self._floats = np.frombuffer(shared, float, n_rows * width).reshape(n_rows, width)
        # the rows whose text `encoding`'s encoder left for `write_csv`, and
        # the file that holds exactly that text
        self._encoded = (0, None)

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

    @contextlib.contextmanager
    def encoding(self):
        """Encode this log's finished rows while the caller appends more.
        Yields the function to call after each append: it hands each
        finished `_BLOCK_ROWS` block to the encoder that the first one forks
        where `_may_fork` allows. On exit, on return or raise, the encoder
        stops after its current quarter block and is joined, and the text
        it stored is kept for `write_csv`."""
        encoder = None  # then the _Encoder, or False where none is forked

        def offer_rows():
            nonlocal encoder
            if self._length % _BLOCK_ROWS or encoder is False:
                return
            if encoder is None:
                encoder = False
                if _may_fork(os.cpu_count() or 1):
                    with contextlib.suppress(OSError):
                        encoder = _Encoder(self)
            if encoder:
                # a count lost to a dead encoder or a full pipe leaves its rows to `write_csv`
                with contextlib.suppress(OSError):
                    os.write(encoder.rows, struct.pack("q", self._length))

        try:
            yield offer_rows
        finally:
            if encoder:
                self._encoded = encoder.join()


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


def _blocks(n_rows, start=0, cpus=1):
    """Slices of at most _BLOCK_ROWS consecutive rows, equal to a row,
    covering rows `start` to n_rows: the fewest that split evenly into one
    share per CPU of `cpus`, or per block the rows start if fewer."""
    blocks = -(-(n_rows - start) // _BLOCK_ROWS)
    shares = max(min(blocks, cpus), 1)
    count = shares * -(-blocks // shares)
    bounds = [start + (n_rows - start) * i // max(count, 1) for i in range(count + 1)]
    return [slice(first, stop) for first, stop in zip(bounds, bounds[1:])]


def write_csv(telemetry, path):
    """Write one CSV row per control tick of a telemetry log: its float
    columns in TelemetryTable field order, then `sat`, the count of its
    thrusts at a motor limit. The `yaw_d` and `pitch_d` columns are those
    of the target attitudes. The text that the flight's encoder stored is
    copied, so those rows are written as they were appended; the others
    are encoded through `_ordered_map`."""
    encoded_rows, text = telemetry._encoded
    with open(path, "wb") as handle:
        handle.write((",".join(csv_header(telemetry.n_rotors)) + "\r\n").encode())
        if text is not None:
            text.seek(0)
            shutil.copyfileobj(text, handle)
        # a child inherits the log, so a task is only its row slice
        texts = _ordered_map(lambda rows: _block_text(telemetry, rows),
                             _blocks(len(telemetry), encoded_rows, os.cpu_count() or 1))
        with contextlib.closing(texts):
            handle.writelines(texts)


def _block_text(log, rows):
    """The CSV text of one block of log rows, as bytes."""
    return "".join(_csv_lines(log, rows)).encode()


def _may_fork(processes):
    """Whether this process may fork to run `processes` processes at once:
    2 or more, on Linux before Python 3.12 (later, forking a process with
    threads, such as numpy's BLAS pool, warns that the child may deadlock;
    on macOS fork is unsafe) and outside a process that `multiprocessing`
    started (a `simulate` config worker's pool already shares the CPUs)."""
    if processes < 2 or sys.platform != "linux" or sys.version_info >= (3, 12):
        return False
    # imported past the cheap checks: only a fork needs its 5 ms import
    import multiprocessing
    return multiprocessing.parent_process() is None


def _fork_into_file(run):
    """Fork a child that calls `run` on a new unlinked temporary file with
    garbage collection off (a cycle of this process's garbage must not be
    finalized there too) and exits 0 if it returns, else 1. Returns the
    child's id and the file."""
    text = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except OSError:
        text.close()
        raise
    if pid == 0:
        try:
            gc.disable()
            run(text)
            text.flush()
            os._exit(0)
        finally:
            os._exit(1)  # a raise never leaves the child
    return pid, text


def _ordered_map(function, tasks):
    """Yield `function(task)`, bytes or None, for each of the sequence
    `tasks`, in order. Where `_may_fork` allows `min(len(tasks), cpus)`
    processes, the tasks are cut into that many even contiguous shares:
    this process runs the first, and a forked child each other, whose
    results are read back from its file if it exits 0, else its share runs
    here. Every child is reaped once the generator ends, closes or raises."""
    processes = min(len(tasks), os.cpu_count() or 1)
    if not _may_fork(processes):
        yield from map(function, tasks)
        return
    bounds = [len(tasks) * i // processes for i in range(processes + 1)]
    first, *shares = (tasks[start:stop] for start, stop in zip(bounds, bounds[1:]))
    children = []  # (share, id, file) of each child not reaped yet
    try:
        for share in shares:
            children.append((share, *_fork_into_file(
                functools.partial(_write_records, function, share))))
        yield from map(function, first)
        while children:
            share, pid, text = children[0]
            exited = _exit_code(pid) == 0
            del children[0]
            with text:
                yield from _records(text) if exited else map(function, share)
    finally:
        for _, pid, text in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            _exit_code(pid)
            text.close()


def _exit_code(pid):
    """Wait for the child `pid`: its exit code, None if reaped already."""
    with contextlib.suppress(ChildProcessError):
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _write_records(function, tasks, text):
    """Write `function(task)` for each task into the file `text`: its length
    in 8 bytes, -1 for None, then its bytes."""
    for result in map(function, tasks):
        text.writelines([struct.pack("q", -1 if result is None else len(result)), result or b""])


def _records(text):
    """The results that `_write_records` wrote into the file `text`."""
    text.seek(0)
    for length in iter(lambda: text.read(8), b""):
        size = struct.unpack("q", length)[0]
        yield None if size < 0 else text.read(size)


class _Encoder:
    """One process forked from a flight that encodes its finished rows, in
    order and a quarter block at a time, into a temporary file. The flight
    sends it each new count of finished rows, 8 bytes on a non-blocking
    pipe, and closes the pipe to stop it after its current quarter block;
    it stores the rows and bytes written so far in the shared `progress`."""

    def __init__(self, log):
        """Fork the encoder of `log`; raises OSError where it cannot."""
        self.progress = np.frombuffer(mmap.mmap(-1, 16), np.int64)
        rows_in, self.rows = os.pipe()
        try:
            self.pid, self.text = _fork_into_file(functools.partial(
                _encode_blocks, log, (rows_in, self.rows), self.progress))
        except OSError:
            os.close(self.rows)
            raise
        finally:
            os.close(rows_in)
        weakref.finalize(log, self.text.close)
        os.set_blocking(self.rows, False)

    def join(self):
        """Stop and reap the encoder: the rows it stored, and their text."""
        os.close(self.rows)
        _exit_code(self.pid)
        rows, size = self.progress.tolist()
        self.text.truncate(size)
        return rows, self.text


def _encode_blocks(log, pipe, progress, text):
    """The encoder's loop. Each count of finished rows goes into its own copy
    of `log._length`, which the fork left at the count it was forked at."""
    rows_in, rows_out = pipe
    os.close(rows_out)  # so that the flight's close ends the pipe
    done = size = 0
    unit = _BLOCK_ROWS // 4  # the rows encoded between two looks at the flight
    news = select.poll()
    news.register(rows_in, select.POLLIN)
    while True:
        # wait for the flight only when every finished row is encoded
        ready = news.poll(None if done == log._length else 0)
        if ready and ready[0][1] & select.POLLHUP:
            return  # the flight is over, whatever counts are still unread
        if ready:
            log._length = struct.unpack("q", os.read(rows_in, 8 * 1024)[-8:])[0]
        if done < log._length:
            block = _block_text(log, slice(done, done + unit))
            text.write(block)
            text.flush()
            done, size = done + unit, size + len(block)
            progress[:] = done, size


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
    `_SPAN_BYTES` span is parsed span by span through `_ordered_map`: each
    span's lines are those that start inside it, and their rows are copied
    into one preallocated table in span order. A span that does not parse
    to the rows counted in it, a bare "\\r" line end included, sends the
    read back to one np.loadtxt call in this process over all the lines.
    The file is read once more only to name the line at fault."""
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
    rows = _ordered_map(lambda span: _parse_span(path, *span, width), spans)
    with contextlib.closing(rows):
        for (_, first, stop), block in zip(spans, rows):
            if block is None:
                return None
            table[first:stop] = np.frombuffer(block).reshape(stop - first, width)
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


def _parse_span(path, start, first, stop, width):
    """The bytes of the `stop - first` rows of `width` numbers that
    `_parse_lines` reads from the lines that start in the span from byte
    `start` on (the line from byte start - 1 on ends before it), or None.
    Lines are split at "\\n" only: np.loadtxt rejects a bare "\\r"
    ("unquoted embedded newline"), and reads "\\r\\n" as "\\n"."""
    with open(path, "rb") as raw:
        raw.seek(max(start - 1, 0))
        lines = itertools.islice(raw, 1, 1 + stop - first)
        block = _parse_lines(line.decode("utf-8") for line in lines)
    return None if block is None or block.shape != (stop - first, width) else block.tobytes()


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
