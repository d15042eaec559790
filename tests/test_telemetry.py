import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from modquad import geometry, telemetry
from modquad.errors import MalformedTelemetry
from modquad.simulation import Telemetry, VehicleState
from modquad.control import Setpoint


def make_state(pos, attitude=None):
    return VehicleState(pos, np.zeros(3), attitude if attitude is not None
                        else np.eye(3), np.zeros(3))


def hover_setpoint(pos):
    return Setpoint(pos, np.zeros(3), np.zeros(3), np.eye(3))


def synthetic_log(n_rows, offset=(0.0, 0.0, 0.0), dt=0.5):
    log = Telemetry(n_rotors=4, n_rows=n_rows)
    for i in range(n_rows):
        pos = np.array([0.1, -0.2, 0.5])
        log.append(i * dt, make_state(pos + np.asarray(offset)),
                   hover_setpoint(pos), np.full(4, 0.3), np.full(4, 0.3),
                   np.zeros(4, dtype=bool))
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
], ids=["short row", "long row", "blank line", "quoted cell", "hash line",
        "header only"])
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
    log = Telemetry(n_rotors=4, n_rows=20)
    # structure flying at frame^T keeps the thrust frame at identity
    for i in range(20):
        log.append(i * 0.5, make_state(np.zeros(3), frame.T),
                   hover_setpoint(np.zeros(3)), np.full(4, 0.3),
                   np.full(4, 0.3), np.zeros(4, dtype=bool))
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
    combined = Telemetry(n_rotors=4, n_rows=20)
    pos = np.array([0.1, -0.2, 0.5])
    for i in range(10):
        combined.append(i * 0.5, make_state(pos + [0.5, 0, 0]),
                        hover_setpoint(pos), np.full(4, 0.3), np.full(4, 0.3),
                        np.zeros(4, dtype=bool))
    for i in range(10, 20):
        combined.append(i * 0.5, make_state(pos), hover_setpoint(pos),
                        np.full(4, 0.3), np.full(4, 0.3),
                        np.zeros(4, dtype=bool))
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
    log = Telemetry(n_rotors=4, n_rows=10)
    pos = np.zeros(3)
    for i in range(10):
        sat = np.array([i % 2 == 0, False, False, False])
        log.append(float(i), make_state(pos), hover_setpoint(pos),
                   np.full(4, 0.3), np.full(4, 0.3), sat)
    path = tmp_path / "run.csv"
    telemetry.write_csv(log, path)
    report = telemetry.compute_metrics(telemetry.read_csv(path), skip_s=0.0)
    assert report.saturation_fraction == pytest.approx(0.5 / 4.0)


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
            state_q = telemetry.rotation_to_quaternion(log.attitude[i])
            row = [log.t[i]]
            row.extend(log.position[i])
            row.extend(log.velocity[i])
            row.extend(state_q)
            row.extend(log.angular_velocity[i])
            row.extend(log.position_d[i])
            row.extend(geometry.yaw_pitch(log.attitude_d[i]))
            row.extend(log.u_actual[i])
            row.append(int(np.sum(log.saturated[i])))
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
    floats = draw(arrays(np.float64, (n_rows, 13 + 2 * n_rotors), elements=cells))
    saturated = draw(arrays(np.bool_, (n_rows, n_rotors)))
    # the flown attitude and the target attitude of each row
    quaternions = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        size=(n_rows, 2, 4))
    log = Telemetry(n_rotors, n_rows)
    for row, sat, q in zip(floats, saturated, quaternions):
        attitude, target = telemetry.quaternion_to_rotation(
            q / np.linalg.norm(q, axis=1, keepdims=True))
        state = VehicleState(row[1:4], row[4:7], attitude, row[7:10])
        setpoint = Setpoint(row[10:13], np.zeros(3), np.zeros(3), target)
        log.append(row[0], state, setpoint, row[13:13 + n_rotors],
                   row[13 + n_rotors:], sat)
    return log


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(log=random_logs())
def test_csv_columns_roundtrip_bit_equal_and_match_row_writer(tmp_path_factory, log):
    folder = tmp_path_factory.mktemp("csv")
    path, reference = folder / "run.csv", folder / "reference.csv"
    telemetry.write_csv(log, path)
    reference_write_csv(log, reference)
    assert path.read_bytes() == reference.read_bytes()
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
