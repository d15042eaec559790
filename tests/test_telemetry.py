import csv
import math
import multiprocessing
import os
import signal
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from modquad import actuation, control, geometry, simulation, telemetry, trajectories, vehicle
from modquad.errors import MalformedTelemetry, NonFiniteState
from modquad.simulation import Telemetry, VehicleState
from modquad.control import Setpoint


def make_state(pos, attitude=None):
    return VehicleState(pos, np.zeros(3), attitude if attitude is not None
                        else np.eye(3), np.zeros(3))


def hover_setpoint(pos):
    return Setpoint(pos, np.zeros(3), np.zeros(3), np.eye(3))


F_MAX = 0.645
BLOCK = telemetry._BLOCK_ROWS


def synthetic_log(n_rows, offset=(0.0, 0.0, 0.0), dt=0.5):
    log = Telemetry(n_rotors=4, n_rows=n_rows, f_max=F_MAX)
    for i in range(n_rows):
        pos = np.array([0.1, -0.2, 0.5])
        log.append(i * dt, make_state(pos + np.asarray(offset)),
                   hover_setpoint(pos), np.full(4, 0.3))
    return log


def test_quaternion_roundtrip_random_rotations():
    rng = np.random.default_rng(59)
    for _ in range(300):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = geometry.rodrigues(axis, rng.uniform(-np.pi, np.pi))
        q = telemetry.rotation_to_quaternion(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.allclose(telemetry.quaternion_to_rotation(q), r, atol=1e-9)


def test_quaternion_to_rotation_stacks_rows():
    q = np.random.default_rng(61).normal(size=(20, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    stacked = telemetry.quaternion_to_rotation(q)
    assert stacked.shape == (20, 3, 3)
    for row, r in zip(q, stacked):
        assert np.array_equal(telemetry.quaternion_to_rotation(row), r)


def reference_rotation_to_quaternion(r):
    """Per-row quaternion formula: the bit-for-bit reference for the
    stacked `telemetry.rotation_to_quaternion`."""
    r = np.asarray(r, dtype=float)
    trace = np.trace(r)
    if trace > 0.0:
        s = math.sqrt(trace + 1.0) * 2.0
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array([(r[2, 1] - r[1, 2]) / s, 0.25 * s,
                      (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s])
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array([(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s,
                      0.25 * s, (r[1, 2] + r[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array([(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s,
                      (r[1, 2] + r[2, 1]) / s, 0.25 * s])
    q /= np.linalg.norm(q)
    for component in q:
        if component != 0.0:
            if component < 0.0:
                q = -q
            break
    return q


def reference_branch(r):
    """0 for the trace branch of the reference, else 1 + the pivot index."""
    if np.trace(r) > 0.0:
        return 0
    if r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        return 1
    return 2 if r[1, 1] > r[2, 2] else 3


def assert_stack_matches_reference(rotations):
    stacked = telemetry.rotation_to_quaternion(rotations)
    expected = np.array([reference_rotation_to_quaternion(r) for r in rotations])
    assert stacked.shape == (len(rotations), 4)
    assert stacked.tobytes() == expected.tobytes()
    for r, q in zip(rotations, stacked):
        assert telemetry.rotation_to_quaternion(r).tobytes() == q.tobytes()


@st.composite
def branch_rotations(draw):
    """A stack of rotations with rows in every branch of the quaternion
    formula: component k of each quaternion dominates the others (k = 0
    puts the trace above zero, k = 1..3 makes diagonal entry k - 1 the
    strict largest), and components may be exactly zero of either sign."""
    others = st.floats(-0.5, 0.5)
    branches = draw(st.lists(st.integers(0, 3), max_size=40)) + [0, 1, 2, 3]
    quaternions = []
    for k in draw(st.permutations(branches)):
        q = [draw(others) for _ in range(4)]
        q[k] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 2.0))
        quaternions.append(q)
    q = np.array(quaternions)
    return telemetry.quaternion_to_rotation(q / np.linalg.norm(q, axis=1, keepdims=True))


@settings(max_examples=100, deadline=None)
@given(rotations=branch_rotations())
def test_stacked_quaternions_match_per_row_formula(rotations):
    assert {reference_branch(r) for r in rotations} == {0, 1, 2, 3}
    assert_stack_matches_reference(rotations)


def test_stacked_quaternions_half_turns():
    # a turn by pi about a principal axis leaves w at zero: the sign rule
    # looks past the leading zero component
    half_turns = np.array([geometry.rot_principal(axis, np.pi) for axis in "xyz"])
    assert_stack_matches_reference(half_turns)
    assert [reference_branch(r) for r in half_turns] == [1, 2, 3]


def test_stacked_quaternions_tied_diagonals():
    # equal diagonal entries take the reference's strict comparisons: a
    # tie for the largest entry goes to the later branch
    a = math.sqrt(0.5)
    q = np.array([[0.0, a, a, 0.0], [0.0, a, 0.0, a], [0.0, 0.0, a, a],
                  [0.1, 0.7, 0.7, 0.1], [0.5, 0.5, 0.5, 0.5], [0.0, 0.6, 0.6, 0.6]])
    rotations = telemetry.quaternion_to_rotation(q / np.linalg.norm(q, axis=1, keepdims=True))
    assert_stack_matches_reference(rotations)


def test_stacked_quaternions_empty_stack():
    assert telemetry.rotation_to_quaternion(np.zeros((0, 3, 3))).shape == (0, 4)


def test_stacked_quaternions_nan_rotation():
    # runs under the suite's filterwarnings = error: no RuntimeWarning
    rotations = np.array([np.eye(3), np.full((3, 3), np.nan),
                          geometry.rot_principal("y", 2.5)])
    assert_stack_matches_reference(rotations)
    assert np.isnan(telemetry.rotation_to_quaternion(rotations)[1]).all()


def test_quaternion_sign_deterministic():
    r = geometry.rot_principal("z", 3.0)
    q = telemetry.rotation_to_quaternion(r)
    q_again = telemetry.rotation_to_quaternion(r.copy())
    assert np.array_equal(q, q_again)
    first_nonzero = q[np.nonzero(q)[0][0]]
    assert first_nonzero > 0


def test_csv_roundtrip(tmp_path):
    log = synthetic_log(20)
    path = tmp_path / "run.csv"
    telemetry.write_csv(log, path)
    table = telemetry.read_csv(path)
    assert table.n_rotors == 4
    assert len(table.t) == 20
    assert np.array_equal(table.position, log.position)
    assert np.array_equal(table.thrusts, log.u_actual)


def test_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,rx,ry\n0,1,2\n")
    with pytest.raises(MalformedTelemetry):
        telemetry.read_csv(path)


def test_csv_rejects_unparseable_rows(tmp_path):
    log = synthetic_log(3)
    path = tmp_path / "run.csv"
    telemetry.write_csv(log, path)
    text = path.read_text().replace("0.3", "zero.three", 1)
    path.write_text(text)
    with pytest.raises(MalformedTelemetry):
        telemetry.read_csv(path)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:], "line 3 "),
    (lambda lines: lines[:2] + [lines[2] + ",0.5"] + lines[3:], "line 3 "),
    (lambda lines: lines[:2] + [""] + lines[2:], "line 3 "),
    (lambda lines: lines[:2] + ['"' + lines[2].replace(",", '",', 1)] + lines[3:],
     "line 3 "),
    (lambda lines: lines[:2] + ["# comment"] + lines[2:], "line 3 "),
    (lambda lines: lines[:1], "header but no rows"),
    (lambda lines: lines[:1] + ["", ""], "line 2 "),
    (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",-40"] + lines[3:],
     "line 3 has sat -40.0"),
    (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",9"], "line 4 has sat 9.0"),
    (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",2.5"] + lines[3:],
     "line 3 has sat 2.5"),
], ids=["short row", "long row", "blank line", "quoted cell", "hash line",
        "header only", "blank body", "negative sat", "sat above rotor count", "fractional sat"])
def test_csv_rejection_names_the_line(tmp_path, edit, message):
    path = tmp_path / "run.csv"
    telemetry.write_csv(synthetic_log(3), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(MalformedTelemetry, match=message):
        telemetry.read_csv(path)


def test_metrics_perfect_hover_all_zero(tmp_path):
    log = synthetic_log(30)
    path = tmp_path / "run.csv"
    telemetry.write_csv(log, path)
    report = telemetry.compute_metrics(telemetry.read_csv(path), skip_s=5.0)
    assert np.allclose(report.max_position_error, 0.0)
    assert np.allclose(report.max_attitude_error_deg, 0.0, atol=1e-9)
    assert report.saturation_fraction == 0.0
    assert not report.diverged


def test_metrics_constant_offset(tmp_path):
    log = synthetic_log(30, offset=(0.03, 0.0, 0.0))
    path = tmp_path / "run.csv"
    telemetry.write_csv(log, path)
    report = telemetry.compute_metrics(telemetry.read_csv(path), skip_s=5.0)
    assert report.max_position_error[0] == pytest.approx(0.03)
    assert report.rms_position_error[0] == pytest.approx(0.03)
    assert report.max_position_error[1] == 0.0


def test_metrics_attitude_error_with_frame_rotation(tmp_path):
    frame = geometry.rot_principal("y", np.pi / 18)
    log = Telemetry(n_rotors=4, n_rows=20, f_max=F_MAX)
    # structure flying at frame^T keeps the thrust frame at identity
    for i in range(20):
        log.append(i * 0.5, make_state(np.zeros(3), frame.T),
                   hover_setpoint(np.zeros(3)), np.full(4, 0.3))
    path = tmp_path / "run.csv"
    telemetry.write_csv(log, path)
    table = telemetry.read_csv(path)
    with_frame = telemetry.compute_metrics(table, skip_s=0.0,
                                           frame_rotation=frame)
    without = telemetry.compute_metrics(table, skip_s=0.0)
    assert np.max(with_frame.max_attitude_error_deg) < 1e-6
    assert without.max_attitude_error_deg[1] == pytest.approx(10.0, abs=1e-6)


def test_metrics_window_skips_transient(tmp_path):
    path = tmp_path / "run.csv"
    # offset rows before t = 5 s, clean rows after
    combined = Telemetry(n_rotors=4, n_rows=20, f_max=F_MAX)
    pos = np.array([0.1, -0.2, 0.5])
    for i in range(10):
        combined.append(i * 0.5, make_state(pos + [0.5, 0, 0]),
                        hover_setpoint(pos), np.full(4, 0.3))
    for i in range(10, 20):
        combined.append(i * 0.5, make_state(pos), hover_setpoint(pos), np.full(4, 0.3))
    telemetry.write_csv(combined, path)
    report = telemetry.compute_metrics(telemetry.read_csv(path), skip_s=5.0)
    assert report.max_position_error[0] == 0.0
    assert report.samples == 10


def test_metrics_stable_under_duplication(tmp_path):
    log = synthetic_log(16, offset=(0.01, 0.02, -0.01))
    path = tmp_path / "run.csv"
    telemetry.write_csv(log, path)
    single = telemetry.compute_metrics(telemetry.read_csv(path), skip_s=5.0)
    text = path.read_text().splitlines()
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("\n".join(text + text[1:]) + "\n")
    double = telemetry.compute_metrics(telemetry.read_csv(doubled), skip_s=5.0)
    assert np.array_equal(single.max_position_error, double.max_position_error)
    assert np.allclose(single.rms_position_error, double.rms_position_error,
                       atol=1e-12)


def test_saturation_fraction(tmp_path):
    log = Telemetry(n_rotors=4, n_rows=10, f_max=F_MAX)
    pos = np.zeros(3)
    for i in range(10):
        # rotor 1 at its limit on every other row
        thrusts = [F_MAX if i % 2 == 0 else 0.3, 0.3, 0.3, 0.3]
        log.append(float(i), make_state(pos), hover_setpoint(pos), np.array(thrusts))
    path = tmp_path / "run.csv"
    telemetry.write_csv(log, path)
    report = telemetry.compute_metrics(telemetry.read_csv(path), skip_s=0.0)
    assert report.saturation_fraction == pytest.approx(0.5 / 4.0)



def random_table(n_rows, n_rotors=8, seed=89):
    """A TelemetryTable of random rows, t in steps of 2 ms."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n_rows, 4))
    return telemetry.TelemetryTable(
        t=np.arange(n_rows) * 0.002, position=rng.normal(size=(n_rows, 3)),
        velocity=rng.normal(size=(n_rows, 3)),
        quaternion=q / np.linalg.norm(q, axis=1, keepdims=True),
        angular_velocity=rng.normal(size=(n_rows, 3)),
        position_d=rng.normal(size=(n_rows, 3)), yaw_d=rng.uniform(-3, 3, n_rows),
        pitch_d=rng.uniform(-1.5, 1.5, n_rows), thrusts=rng.uniform(0, 1, (n_rows, n_rotors)),
        saturated_count=rng.integers(0, n_rotors + 1, n_rows).astype(float))


def test_metrics_over_blocks_match_one_block(monkeypatch):
    # the window starts inside the first block and ends inside the third
    table = random_table(5 * telemetry._BLOCK_ROWS // 2)
    frame = geometry.rot_principal("y", 0.3)
    blocked = telemetry.compute_metrics(table, skip_s=1.0, frame_rotation=frame)
    table.thrusts[-1, -1] = np.inf
    assert telemetry.compute_metrics(table, skip_s=1.0).diverged
    table.thrusts[-1, -1] = 0.5
    monkeypatch.setattr(telemetry, "_BLOCK_ROWS", len(table.t))
    whole = telemetry.compute_metrics(table, skip_s=1.0, frame_rotation=frame)
    assert not blocked.diverged and blocked.samples == whole.samples
    for name in ("max_position_error", "rms_position_error", "max_attitude_error_deg",
                 "rms_attitude_error_deg", "saturation_fraction"):
        assert same_bits(getattr(blocked, name), getattr(whole, name))

_REFERENCE_FIXED_FIELDS = ["t", "rx", "ry", "rz", "vx", "vy", "vz",
                           "qw", "qx", "qy", "qz", "wx", "wy", "wz",
                           "rdx", "rdy", "rdz", "yaw_d", "pitch_d"]


def reference_write_csv(log, path):
    """Row-wise telemetry writer through the csv module: the byte-for-byte
    reference for the column-wise `telemetry.write_csv`."""
    n = log.n_rotors
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_REFERENCE_FIXED_FIELDS
                        + [f"u{i + 1}" for i in range(n)] + ["sat"])
        for i in range(len(log)):
            state_q = reference_rotation_to_quaternion(log.attitude[i])
            row = [log.t[i]]
            row.extend(log.position[i])
            row.extend(log.velocity[i])
            row.extend(state_q)
            row.extend(log.angular_velocity[i])
            row.extend(log.position_d[i])
            row.extend(geometry.yaw_pitch(log.attitude_d[i]))
            row.extend(log.u_actual[i])
            row.append(sum(u == 0.0 or u == log.f_max for u in log.u_actual[i].tolist()))
            writer.writerow([repr(float(value)) if not isinstance(value, int)
                             else str(value) for value in row])


# finite floats, with signed zero, subnormals and the extremes always in reach
cells = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def random_logs(draw):
    n_rotors = draw(st.sampled_from([4, 8, 64]))
    n_rows = draw(st.integers(1, 50))
    f_max = draw(st.one_of(st.just(0.912), st.floats(5e-324, 1e308)))
    floats = draw(arrays(np.float64, (n_rows, 13), elements=cells))
    # thrust cells at either limit, 0.0 of both signs, or anywhere
    thrusts = draw(arrays(np.float64, (n_rows, n_rotors), elements=st.one_of(
        st.sampled_from([0.0, -0.0, f_max]), cells)))
    # the flown attitude and the target attitude of each row
    quaternions = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        size=(n_rows, 2, 4))
    return log_of_rows(np.hstack([floats, thrusts]), quaternions, f_max)


def log_of_rows(floats, quaternions, f_max):
    """Telemetry log of n rows: per row 13 + n_rotors floats (t, position,
    velocity, angular velocity, target position, thrusts) and two
    quaternions (flown and target attitude) that need not be normalized."""
    n_rows, n_rotors = floats.shape[0], floats.shape[1] - 13
    log = Telemetry(n_rotors, n_rows, f_max)
    for row, q in zip(floats, quaternions):
        attitude, target = telemetry.quaternion_to_rotation(
            q / np.linalg.norm(q, axis=1, keepdims=True))
        state = VehicleState(row[1:4], row[4:7], attitude, row[7:10])
        setpoint = Setpoint(row[10:13], np.zeros(3), np.zeros(3), target)
        log.append(row[0], state, setpoint, row[13:])
    return log


def long_log(n_rows, n_rotors=8, seed=83):
    """A log of mixed values: normal floats, -0.0 cells, thrusts at f_max,
    and every 97th row NaN throughout, its attitudes included."""
    rng = np.random.default_rng(seed)
    floats = rng.normal(scale=10.0, size=(n_rows, 13 + n_rotors))
    floats[rng.random(floats.shape) < 0.05] = -0.0
    floats[:, 13:][rng.random((n_rows, n_rotors)) < 0.2] = F_MAX
    quaternions = rng.normal(size=(n_rows, 2, 4))
    floats[::97] = np.nan
    quaternions[::97] = np.nan
    return log_of_rows(floats, quaternions, F_MAX)


def same_bits(a, b):
    """Bit equality, except that a NaN of either sign matches any NaN: the
    CSV writes every NaN as `nan`."""
    a, b = (np.where(np.isnan(x), np.nan, x) for x in
            (np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_csv_matches_row_writer(log, folder):
    """The log's CSV equals the row writer's byte for byte; returns its path."""
    path, reference = folder / "run.csv", folder / "reference.csv"
    telemetry.write_csv(log, path)
    reference_write_csv(log, reference)
    assert path.read_bytes() == reference.read_bytes()
    return path


def assert_csv_matches_log(log, folder):
    """The log's CSV equals the row writer's byte for byte, and reads back
    bit-equal; returns the CSV's path."""
    path = assert_csv_matches_row_writer(log, folder)
    table = telemetry.read_csv(path)
    quaternions = [telemetry.rotation_to_quaternion(r) for r in log.attitude]
    yaw_d, pitch_d = geometry.yaw_pitch(log.attitude_d)
    for read, written in ((table.t, log.t), (table.position, log.position),
                          (table.velocity, log.velocity),
                          (table.quaternion, quaternions),
                          (table.angular_velocity, log.angular_velocity),
                          (table.position_d, log.position_d),
                          (table.yaw_d, yaw_d), (table.pitch_d, pitch_d),
                          (table.thrusts, log.u_actual),
                          (table.saturated_count, log.saturated.sum(axis=1))):
        assert same_bits(read, written)
    return path


@settings(max_examples=60, deadline=None)
@given(log=random_logs())
def test_csv_columns_roundtrip_bit_equal_and_match_row_writer(tmp_path_factory, log):
    assert_csv_matches_log(log, tmp_path_factory.mktemp("csv"))


def assert_reaped(pids):
    """Each of the processes `pids` has exited and been waited for."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def failing_in_a_child(function, fault):
    """`function`, except that in a process forked from this one it raises
    or, for the fault "dies", kills its own process."""
    parent = os.getpid()

    def failing(*args):
        if os.getpid() != parent:
            if fault == "dies":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError(f"failed in process {os.getpid()}")
        return function(*args)
    return failing


@pytest.mark.parametrize("n_tasks, cpus, children", [
    (0, 2, 0), (1, 2, 0), (5, 1, 0), (5, 2, 1), (3, 4, 2), (9, 4, 3)])
def test_ordered_map_forks_one_child_per_share_after_the_first(
        monkeypatch, forks, n_tasks, cpus, children):
    monkeypatch.setattr(telemetry.os, "cpu_count", lambda: cpus)
    tasks = [None if i % 3 == 1 else bytes([i]) * 1000 * i for i in range(n_tasks)]
    assert list(telemetry._ordered_map(lambda task: task, tasks)) == tasks
    assert forks.parents == [os.getpid()] * children
    forks.assert_reaped()


def test_csv_longer_than_one_block(tmp_path, monkeypatch, forks):
    n_rows = 5 * telemetry._BLOCK_ROWS // 2
    log = long_log(n_rows)
    # one CPU writes and reads in this process; two fork one child for the
    # write's second share and one for the read's
    for cpus in (1, 2):
        monkeypatch.setattr(telemetry.os, "cpu_count", lambda n=cpus: n)
        (tmp_path / str(cpus)).mkdir()
        path = assert_csv_matches_log(log, tmp_path / str(cpus))
        assert forks.parents == [os.getpid()] * 2 * (cpus - 1)
        forks.assert_reaped()
    lines = path.read_text().splitlines()
    last_block = 2 * telemetry._BLOCK_ROWS  # row index; row i is on line i + 2
    short, blank = last_block + 100, last_block + 300
    edited = list(lines)
    edited[short + 1] = edited[short + 1].rsplit(",", 1)[0]
    path.write_text("\n".join(edited) + "\n")
    with pytest.raises(MalformedTelemetry, match=f"line {short + 2} "):
        telemetry.read_csv(path)
    path.write_text("\n".join(lines[:blank + 1] + [""] + lines[blank + 1:]) + "\n")
    with pytest.raises(MalformedTelemetry, match=f"line {blank + 2} "):
        telemetry.read_csv(path)
    forks.assert_reaped()


def test_csv_write_in_even_shares():
    # the rows a flight left unencoded are cut into one even share per
    # started block, up to one per CPU, of slices of at most one block
    rows = telemetry._blocks(12001, 9216, 2)
    assert [(r.start, r.stop) for r in rows] == [
        (9216, 9912), (9912, 10608), (10608, 11304), (11304, 12001)]
    assert telemetry._blocks(3073, 3072, 2) == [slice(3072, 3073)]
    assert telemetry._blocks(3072, 3072, 2) == []
    assert telemetry._blocks(BLOCK + 1, 0, 2) == [slice(0, 512), slice(512, BLOCK + 1)]
    assert telemetry._blocks(5 * BLOCK, 0, 1) == [slice(i * BLOCK, (i + 1) * BLOCK)
                                                  for i in range(5)]


@pytest.mark.parametrize("fault", ["raises", "dies"])
def test_csv_write_after_a_child_fails(tmp_path, monkeypatch, forks, fault):
    # this process encodes the failed child's share again, with the same bytes
    monkeypatch.setattr(telemetry, "_csv_lines", failing_in_a_child(telemetry._csv_lines, fault))
    monkeypatch.setattr(telemetry.os, "cpu_count", lambda: 2)
    assert_csv_matches_row_writer(long_log(3 * BLOCK), tmp_path)
    assert forks.parents == [os.getpid()]
    forks.assert_reaped()


def test_csv_write_reaps_its_child_when_a_share_fails(tmp_path, monkeypatch, forks):
    encode, n_rows = telemetry._csv_lines, 3 * BLOCK

    def failing_last_slice(log, rows):
        if rows.stop == n_rows:
            raise RuntimeError(f"rows encoded in process {os.getpid()}")
        return encode(log, rows)

    monkeypatch.setattr(telemetry, "_csv_lines", failing_last_slice)
    monkeypatch.setattr(telemetry.os, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="rows encoded in process") as excinfo:
        telemetry.write_csv(long_log(n_rows), tmp_path / "run.csv")
    # the slice failed in the child, then again here, and this process's
    # error reached the caller
    assert str(excinfo.value) == f"rows encoded in process {os.getpid()}"
    assert forks.parents == [os.getpid()]
    forks.assert_reaped()


def table_bytes(table):
    return [getattr(table, f.name).tobytes() for f in fields(table)]


def read_with_cpus(monkeypatch, path, cpus, forks):
    """`read_csv` on `cpus` CPUs: the table, or the message of its error;
    every child forked so far has been reaped when it returns."""
    monkeypatch.setattr(telemetry.os, "cpu_count", lambda: cpus)
    try:
        return telemetry.read_csv(path)
    except MalformedTelemetry as error:
        return str(error)
    finally:
        forks.assert_reaped()


# 64 KiB spans put a 600-row log of 8 rotors in 5 spans; 300-byte spans are
# shorter than a line, so most spans hold no line start
@pytest.mark.parametrize("span_bytes", [1 << 16, 300])
def test_csv_read_in_spans_bit_equal_to_one_parse(tmp_path, monkeypatch, forks, span_bytes):
    monkeypatch.setattr(telemetry, "_SPAN_BYTES", span_bytes)
    log = long_log(600 if span_bytes > 300 else 40)
    tables = {}
    for cpus in (1, 2):
        monkeypatch.setattr(telemetry.os, "cpu_count", lambda n=cpus: n)
        (tmp_path / str(cpus)).mkdir()
        path = assert_csv_matches_log(log, tmp_path / str(cpus))
        forks.assert_reaped()
        tables[cpus] = table_bytes(telemetry.read_csv(path))
    assert path.stat().st_size >= 3 * span_bytes
    # a one-block log is written in this process; only the reads with two CPUs fork
    assert forks.parents == [os.getpid()] * 2
    forks.assert_reaped()
    assert tables[1] == tables[2]


def test_csv_read_in_spans_with_a_line_at_a_span_start(tmp_path, monkeypatch, forks):
    # the line that starts at a span's first byte is that span's, not the one before's
    path = tmp_path / "run.csv"
    telemetry.write_csv(long_log(100), path)
    text = path.read_bytes()
    tenth = [i + 1 for i, byte in enumerate(text) if byte == ord("\n")][10]
    monkeypatch.setattr(telemetry, "_SPAN_BYTES", tenth)
    expected = table_bytes(read_with_cpus(monkeypatch, path, 1, forks))
    assert table_bytes(read_with_cpus(monkeypatch, path, 2, forks)) == expected
    assert forks.parents == [os.getpid()]


def test_csv_read_in_spans_on_one_cpu_parses_in_process(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(telemetry, "_SPAN_BYTES", 1 << 16)
    path = tmp_path / "run.csv"
    telemetry.write_csv(long_log(600), path)
    parse, parsed_in = telemetry._parse_span, []

    def recording_parse(*span):
        parsed_in.append(os.getpid())
        return parse(*span)

    monkeypatch.setattr(telemetry, "_parse_span", recording_parse)
    expected = table_bytes(read_with_cpus(monkeypatch, path, 1, forks))
    assert path.stat().st_size >= 3 * telemetry._SPAN_BYTES
    assert forks.parents == []
    assert len(parsed_in) >= 3 and set(parsed_in) == {os.getpid()}
    # on two CPUs this process parses the first half of the spans and a
    # child the rest, recording in its own copy of the list
    in_process = list(parsed_in)
    assert table_bytes(read_with_cpus(monkeypatch, path, 2, forks)) == expected
    assert forks.parents == [os.getpid()]
    assert parsed_in == in_process + [os.getpid()] * (len(in_process) // 2)


def malformed_last_span(lines):
    """Edits of the CSV lines (without line ends) near the end of the file,
    and the message each one gives: a short row, a blank line, a byte that
    is not UTF-8 and a `sat` above the rotor count."""
    n = len(lines)
    return [
        (lines[:n - 3] + [lines[n - 3].rsplit(",", 1)[0]] + lines[n - 2:],
         f"line {n - 2} is not "),
        (lines[:n - 2] + [""] + lines[n - 2:], f"line {n - 1} is not "),
        (lines[:n - 3] + [lines[n - 3].replace(",", ",\xff", 1)] + lines[n - 2:],
         f"line {n - 2} is not "),
        (lines[:n - 2] + [lines[n - 2].rsplit(",", 1)[0] + ",9"] + lines[n - 1:],
         f"line {n - 1} has sat 9.0"),
    ]


def test_csv_read_in_spans_names_the_same_line(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(telemetry, "_SPAN_BYTES", 1 << 16)
    path = tmp_path / "run.csv"
    telemetry.write_csv(long_log(600), path)
    lines = path.read_bytes().decode("latin-1").split("\r\n")[:-1]
    for edited, message in malformed_last_span(lines):
        path.write_bytes("\r\n".join(edited + [""]).encode("latin-1"))
        assert path.stat().st_size >= 3 * telemetry._SPAN_BYTES
        in_process = read_with_cpus(monkeypatch, path, 1, forks)
        assert in_process.startswith(message)
        assert read_with_cpus(monkeypatch, path, 2, forks) == in_process
    assert len(forks.parents) == 4


@pytest.mark.parametrize("fault", ["raises", "dies"])
def test_csv_read_in_spans_after_a_child_fails(tmp_path, monkeypatch, forks, fault):
    # this process parses the failed child's spans again: the same table
    # bits, and the same message naming the same line
    monkeypatch.setattr(telemetry, "_SPAN_BYTES", 1 << 16)
    path = tmp_path / "run.csv"
    telemetry.write_csv(long_log(600), path)
    expected = table_bytes(read_with_cpus(monkeypatch, path, 1, forks))
    lines = path.read_bytes().split(b"\r\n")[:-1]
    monkeypatch.setattr(telemetry, "_parse_span",
                        failing_in_a_child(telemetry._parse_span, fault))
    assert table_bytes(read_with_cpus(monkeypatch, path, 2, forks)) == expected
    edited, message = malformed_last_span([line.decode() for line in lines])[0]
    path.write_text("\n".join(edited) + "\n")
    assert read_with_cpus(monkeypatch, path, 2, forks).startswith(message)
    assert forks.parents == [os.getpid()] * 2


def test_csv_read_stopped_at_a_malformed_first_span_reaps_its_child(
        tmp_path, monkeypatch, forks):
    # the first span, this process's, is malformed while the child still
    # parses: the read stops there, kills the child and reaps it
    monkeypatch.setattr(telemetry, "_SPAN_BYTES", 1 << 16)
    path = tmp_path / "run.csv"
    telemetry.write_csv(long_log(600), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]) + "\n")
    expected = read_with_cpus(monkeypatch, path, 1, forks)
    assert expected.startswith("line 3 is not ")
    parent, parse = os.getpid(), telemetry._parse_span

    def slow_in_a_child(*span):
        if os.getpid() != parent:
            time.sleep(60)
        return parse(*span)

    monkeypatch.setattr(telemetry, "_parse_span", slow_in_a_child)
    start = time.monotonic()
    assert read_with_cpus(monkeypatch, path, 2, forks) == expected
    assert time.monotonic() - start < 30
    assert forks.parents == [parent]


def test_csv_read_in_spans_raises_the_in_process_error(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(telemetry, "_SPAN_BYTES", 1 << 16)
    monkeypatch.setattr(telemetry.os, "cpu_count", lambda: 2)
    path = tmp_path / "run.csv"
    telemetry.write_csv(long_log(600), path)
    parse = telemetry._parse_span

    def failing_last_span(path, start, *rows):
        if start + telemetry._SPAN_BYTES >= path.stat().st_size:
            raise RuntimeError(f"span parsed in process {os.getpid()}")
        return parse(path, start, *rows)

    monkeypatch.setattr(telemetry, "_parse_span", failing_last_span)
    with pytest.raises(RuntimeError, match="span parsed in process") as excinfo:
        telemetry.read_csv(path)
    # the span failed in the child, then again here, and this process's
    # error reached the caller
    assert str(excinfo.value) == f"span parsed in process {os.getpid()}"
    assert forks.parents == [os.getpid()]
    forks.assert_reaped()


@pytest.mark.parametrize("line_end", ["bare_cr", "mixed"])
def test_csv_read_in_spans_takes_every_line_end(tmp_path, monkeypatch, forks, line_end):
    # text mode splits lines at "\r", "\n" and "\r\n"; the span parse splits
    # at "\n" only, so a bare "\r" sends the read back to one parse
    monkeypatch.setattr(telemetry, "_SPAN_BYTES", 1 << 16)
    path = tmp_path / "run.csv"
    telemetry.write_csv(long_log(600), path)
    expected = table_bytes(read_with_cpus(monkeypatch, path, 1, forks))
    lines = path.read_bytes().split(b"\r\n")[:-1]
    if line_end == "bare_cr":
        path.write_bytes(b"".join(line + b"\r" for line in lines))
    else:
        path.write_bytes(b"".join(line + (b"\n", b"\r\n")[i % 2] for i, line in enumerate(lines)))
    for cpus in (1, 2):
        assert table_bytes(read_with_cpus(monkeypatch, path, cpus, forks)) == expected
    # a header that ends in a bare "\r" is parsed in this process from the start
    assert len(forks.parents) == (0 if line_end == "bare_cr" else 1)
    # a bare "\r" in the body reaches the span parse
    path.write_bytes(b"".join(line + (b"\r" if i == len(lines) - 5 else b"\r\n")
                              for i, line in enumerate(lines)))
    for cpus in (1, 2):
        assert table_bytes(read_with_cpus(monkeypatch, path, cpus, forks)) == expected
    assert len(forks.parents) == (1 if line_end == "bare_cr" else 2)


def test_csv_read_in_a_multiprocessing_child_parses_in_process(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(telemetry, "_SPAN_BYTES", 1 << 16)
    monkeypatch.setattr(telemetry.os, "cpu_count", lambda: 2)
    path = tmp_path / "run.csv"
    telemetry.write_csv(long_log(600), path)
    expected = table_bytes(telemetry.read_csv(path))
    assert forks.parents == [os.getpid()]

    def read_in_child():
        table = telemetry.read_csv(path)
        # a fork in this child would be recorded with the parent's
        os._exit(0 if table_bytes(table) == expected else 1)

    child = multiprocessing.get_context("fork").Process(target=read_in_child)
    child.start()
    child.join(timeout=60)
    assert not child.is_alive() and child.exitcode == 0
    assert forks.parents == [os.getpid()]


def traced_peak(function, *args):
    """Peak bytes that tracemalloc, numpy buffers included, sees while
    `function(*args)` runs, and its result."""
    tracemalloc.start()
    try:
        result = function(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_csv_write_and_read_memory_stay_bounded(tmp_path):
    # one block against four: a writer that holds the whole log's cells
    # peaks about four times higher on the longer log
    short, long = (synthetic_log(n * telemetry._BLOCK_ROWS, dt=0.002) for n in (1, 4))
    short_peak, _ = traced_peak(telemetry.write_csv, short, tmp_path / "short.csv")
    long_peak, _ = traced_peak(telemetry.write_csv, long, tmp_path / "long.csv")
    assert long_peak <= 1.25 * short_peak
    read_peak, table = traced_peak(telemetry.read_csv, tmp_path / "long.csv")
    table_bytes = sum(getattr(table, f.name).nbytes for f in fields(table))
    block_bytes = telemetry._BLOCK_ROWS * table_bytes // len(table.t)
    assert read_peak <= 1.5 * table_bytes + block_bytes


# -- the encoder that a flight forks ------------------------------------------

_csv_lines = telemetry._csv_lines
GAINS = control.ControllerGains(k_pos=[6, 6, 6], k_vel=[4, 4, 4], k_att=[100, 100, 100],
                                k_omega=[20, 20, 20])


def four_t(f_max=F_MAX):
    """exp4's structure of four T modules (6 DOF), and its analysis."""
    tp, tm = (vehicle.make_t_module(eta) for eta in (np.pi / 4, -np.pi / 4))
    structure = vehicle.assemble_structure(
        [(tp, (0, 0, 0)), (tm, (0, 1, 0)), (tm, (1, 0, 0)), (tp, (1, 1, 0))])
    return structure, actuation.analyze_structure(structure, f_max=f_max)


def fly(n_rows, trajectory=trajectories.HelixDef(), f_max=F_MAX):
    """The log of a flight of `n_rows` control ticks of `four_t`."""
    structure, analysis = four_t(f_max)
    return simulation.run_scenario(structure, analysis, GAINS, trajectory,
                                   duration=(n_rows - 1) * simulation.DEFAULT_DT_CTRL,
                                   motor=simulation.MotorModel(f_max))


def waiting_at_tick(tick, seconds=0.5, trajectory=trajectories.HelixDef()):
    """`trajectory`, pausing for `seconds` at control tick `tick`, so that
    an encoder catches up with the blocks the flight has handed it."""
    def paused(t):
        if round(t / simulation.DEFAULT_DT_CTRL) == tick:
            time.sleep(seconds)
        return trajectory(t)
    return paused


@pytest.fixture
def encoders(monkeypatch):
    """The process ids of the encoders forked while the test runs."""
    pids, fork = [], telemetry._Encoder.__init__

    def recording_fork(encoder, log):
        fork(encoder, log)
        pids.append(encoder.pid)

    monkeypatch.setattr(telemetry._Encoder, "__init__", recording_fork)
    return pids


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n_rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK,
                                    2 * BLOCK + 1])
def test_flown_csv_matches_row_writer(tmp_path, monkeypatch, encoders, n_rows, cpus):
    monkeypatch.setattr(telemetry.os, "cpu_count", lambda: cpus)
    log = fly(n_rows)
    assert len(log) == n_rows
    assert_csv_matches_row_writer(log, tmp_path)
    # two CPUs fork one encoder at the first finished block that is not the
    # flight's last row; it has exited when the flight returns
    assert len(encoders) == (1 if cpus == 2 and n_rows > BLOCK else 0)
    assert_reaped(encoders)


def test_flown_csv_copies_the_encoders_blocks(tmp_path, monkeypatch, encoders):
    monkeypatch.setattr(telemetry.os, "cpu_count", lambda: 2)
    n_rows = 3 * BLOCK + 1
    log = fly(n_rows, waiting_at_tick(n_rows - 1))
    # every block the flight finished before its last row was encoded
    # during the flight, and `write_csv` encodes only that row
    assert log._encoded[0] == 3 * BLOCK
    encoded = []
    monkeypatch.setattr(telemetry, "_csv_lines", lambda log, rows: (
        encoded.append(rows) or _csv_lines(log, rows)))
    assert_csv_matches_row_writer(log, tmp_path)
    assert encoded == [slice(3 * BLOCK, 3 * BLOCK + 1)]
    assert_reaped(encoders)


def test_flown_csv_after_the_encoder_fails(tmp_path, monkeypatch, encoders):
    # the encoder fails on its second block: the first block's text is
    # copied and the rest is encoded by `write_csv`, with the same bytes
    monkeypatch.setattr(telemetry.os, "cpu_count", lambda: 2)
    in_encoder, encode_blocks = [], telemetry._encode_blocks

    def marked_encoder(*args):
        in_encoder.append(True)  # in the encoder's own copy of the list
        return encode_blocks(*args)

    def failing_in_the_encoder(log, rows):
        if in_encoder and rows.start == BLOCK:
            raise RuntimeError("encoder failed")
        return _csv_lines(log, rows)

    monkeypatch.setattr(telemetry, "_encode_blocks", marked_encoder)
    monkeypatch.setattr(telemetry, "_csv_lines", failing_in_the_encoder)
    n_rows = 3 * BLOCK + 1
    log = fly(n_rows, waiting_at_tick(n_rows - 1))
    assert log._encoded[0] == BLOCK and len(encoders) == 1
    assert_reaped(encoders)
    assert_csv_matches_row_writer(log, tmp_path)


def test_diverged_flight_writes_the_ticks_reached(tmp_path, monkeypatch, encoders):
    # exp4's structure at its 0.912 N rotor limit, pitching 57 degrees every
    # 2 s, leaves the 100 m radius after about 5.5 s: 2,700-odd rows
    monkeypatch.setattr(telemetry.os, "cpu_count", lambda: 2)
    sine = trajectories.AttitudeSineDef(axis="y", amplitude=1.0, period=2.0)
    with pytest.raises(NonFiniteState, match="diverged at t = ") as excinfo:
        fly(5001, sine, f_max=0.912)
    log = excinfo.value.telemetry
    t_end = float(str(excinfo.value).split("t = ")[1].split()[0])
    assert len(log) == round(t_end / simulation.DEFAULT_DT_CTRL) > 2 * BLOCK
    assert len(encoders) == 1
    assert_reaped(encoders)
    path = assert_csv_matches_row_writer(log, tmp_path)
    assert len(path.read_bytes().splitlines()) == len(log) + 1


def test_flight_that_raises_leaves_no_encoder(monkeypatch, encoders):
    monkeypatch.setattr(telemetry.os, "cpu_count", lambda: 2)
    helix = trajectories.HelixDef()

    def failing_helix(t):
        if t >= 1500 * simulation.DEFAULT_DT_CTRL:
            raise RuntimeError("trajectory failed")
        return helix(t)

    with pytest.raises(RuntimeError, match="trajectory failed"):
        fly(3 * BLOCK, failing_helix)
    assert len(encoders) == 1
    assert_reaped(encoders)

