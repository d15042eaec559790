import concurrent.futures
import json
import logging
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modquad import cli, telemetry

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_hover_config(path, duration=0.5, extra="", physical="",
                       trajectory="{kind: hover, point_m: [0.0, 0.0, 0.5]}",
                       dt_sim=0.001):
    path.write_text(f"""
modules:
  - kind: T
    eta_rad: 0.7853981633974483
    cell: [0, 0, 0]
  - kind: T
    eta_rad: -0.7853981633974483
    cell: [0, 1, 0]
  - kind: T
    eta_rad: -0.7853981633974483
    cell: [1, 0, 0]
  - kind: T
    eta_rad: 0.7853981633974483
    cell: [1, 1, 0]
gains:
  k_pos: [6, 6, 6]
  k_vel: [4, 4, 4]
  k_att: [100, 100, 100]
  k_omega: [20, 20, 20]
{physical}
scenario:
  trajectory: {trajectory}
  duration_s: {duration}
  dt_ctrl_s: 0.002
  dt_sim_s: {dt_sim}
{extra}""")


def test_analyze_exp1_reports_dof4(capsys):
    code = cli.main(["analyze", str(FIXTURES / "exp1.cfg"), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["controllable_dof"] == 4
    rf = np.array(payload["f_frame"])
    expected = np.array([
        [np.cos(np.pi / 18), 0.0, np.sin(np.pi / 18)],
        [0.0, 1.0, 0.0],
        [-np.sin(np.pi / 18), 0.0, np.cos(np.pi / 18)],
    ])
    assert np.max(np.abs(rf - expected)) < 1e-9


def test_analyze_exp2_reports_dof5(capsys):
    code = cli.main(["analyze", str(FIXTURES / "exp2.cfg"), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["controllable_dof"] == 5
    assert np.max(np.abs(np.array(payload["f_frame"]) - np.eye(3))) < 1e-9


def test_analyze_inapplicable_design_exits_3(capsys):
    code = cli.main(["analyze", str(FIXTURES / "fig5d.cfg")])
    assert code == 3
    err = capsys.readouterr().err
    assert "inapplicable" in err


def one_t_module(tmp_path, physical):
    cfg = tmp_path / "one_t.cfg"
    cfg.write_text(f"physical:\n  {physical}\n"
                   "modules:\n  - kind: T\n    eta_rad: 0.7853981633974483\n"
                   "    cell: [0, 0, 0]\n")
    return cfg


def test_analyze_huge_module_mass_reports_a_finite_residual(tmp_path, capsys):
    # the weight's square overflows a float; the residual and the solver's
    # rounding tolerance must not
    cfg = one_t_module(tmp_path, "module_mass_kg: 1.0e+200")
    assert cli.main(["analyze", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert "hover residual 9.81e+200 N" in captured.out
    assert "inapplicable" in captured.err
    assert cli.main(["analyze", str(cfg), "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["hover_residual_n"] == pytest.approx(9.81e200)


@pytest.mark.parametrize("arm, code, message", [
    # the unit arms do not depend on the arm length, so neither extreme
    # under- or overflows; at 1e300 m the force rows fall below the rank
    # tolerance of the torque rows
    ("1.0e-300", 0, "controllable DOF: 4"),
    ("1.0e+300", 2, "controllable DOF must be 4, 5 or 6, got 3"),
])
def test_analyze_extreme_arm_length_without_warnings(tmp_path, capsys, arm, code, message):
    cfg = one_t_module(tmp_path, f"arm_m: {arm}")
    assert cli.main(["analyze", str(cfg)]) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert "|axis|" not in captured.err
    if code == 2:
        assert "arm_m" in captured.err


def test_simulate_inapplicable_design_exits_3_without_csv(tmp_path, capsys):
    cfg = tmp_path / "fig5d_hover.cfg"
    cfg.write_text((FIXTURES / "fig5d.cfg").read_text() + """
scenario:
  trajectory: {kind: hover, point_m: [0.0, 0.0, 0.5]}
  duration_s: 0.5
""")
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", str(cfg), "-o", str(out)]) == 3
    assert "cannot hover" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_degenerate_torque_rows_exits_2(tmp_path, capsys):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("modules:\n  - kind: R\n    cell: [0, 0, 0]\n"
                   "physical:\n  drag_to_thrust_m: 0\n")
    assert cli.main(["analyze", str(cfg)]) == 2
    assert "torque rows have rank 2 < 3" in capsys.readouterr().err


def test_analyze_schema_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("modules: []\n")
    code = cli.main(["analyze", str(bad)])
    assert code == 2


def test_analyze_text_output(capsys):
    code = cli.main(["analyze", str(FIXTURES / "exp4.cfg")])
    assert code == 0
    out = capsys.readouterr().out
    assert "controllable DOF: 6" in out
    assert "balanced" in out


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "hover.cfg"
    write_hover_config(cfg)
    out = tmp_path / "run.csv"
    code = cli.main(["simulate", str(cfg), "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,rx,ry,rz,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz,"
                               "rdx,rdy,rdz,yaw_d,pitch_d,u1")
    assert lines[0].endswith(",sat")
    assert len(lines) == 1 + int(0.5 / 0.002) + 1


def test_simulate_zero_duration_single_row(tmp_path):
    cfg = tmp_path / "hover.cfg"
    write_hover_config(cfg, duration=0.0)
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", str(cfg), "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_simulate_missing_scenario_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nos.cfg"
    cfg.write_text("modules:\n  - kind: T\n    eta_rad: 0.0\n    cell: [0, 0, 0]\n")
    code = cli.main(["simulate", str(cfg), "-o", str(tmp_path / "x.csv")])
    assert code == 2


def test_simulate_deterministic_bytes(tmp_path):
    cfg = tmp_path / "hover.cfg"
    write_hover_config(cfg, duration=0.3)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["simulate", str(cfg), "-o", str(out1)]) == 0
    assert cli.main(["simulate", str(cfg), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_multiple_configs_with_jobs(tmp_path):
    cfg1 = tmp_path / "one.cfg"
    cfg2 = tmp_path / "two.cfg"
    write_hover_config(cfg1, duration=0.2)
    write_hover_config(cfg2, duration=0.2)
    outdir = tmp_path / "runs"
    code = cli.main(["simulate", str(cfg1), str(cfg2), "-o", str(outdir)])
    assert code == 0
    assert (outdir / "one.csv").exists()
    assert (outdir / "two.csv").exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_simulate_divergence_exits_4_with_partial_telemetry(tmp_path, capsys, monkeypatch,
                                                            cpus):
    # exp4's structure at its 0.912 N rotor limit, pitching 57 degrees every
    # 2 s, far past its 35.26-degree static boundary: it falls out of the
    # 100 m radius after about 5.5 simulated seconds
    configs = [tmp_path / "one.cfg", tmp_path / "two.cfg"]
    for path in configs:
        write_hover_config(path, duration=10.0, physical="physical:\n  f_max_n: 0.912",
                           trajectory="{kind: attitude_sine, axis: y, amplitude_rad: 1.0, "
                                      "period_s: 2.0, hover_point_m: [0.0, 0.0, 0.5]}")
    # one CPU flies both configs in this process, two fly them in a pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    outdir = tmp_path / "runs"
    code = cli.main(["simulate", *map(str, configs), "-o", str(outdir)])
    assert code == 4
    err = capsys.readouterr().err
    for path in configs:
        t_end = float(re.search(re.escape(str(path)) + r": state diverged at t = ([0-9.]+) s",
                                err).group(1))
        # one row per tick reached: t = 0 up to the tick before the divergence
        table = telemetry.read_csv(outdir / f"{path.stem}.csv")
        assert len(table.t) == round(t_end / 0.002)
        assert table.t[-1] == pytest.approx(t_end - 0.002)
        # sat counts the rotors at a limit, and the flight does saturate
        at_bound = (table.thrusts == 0.0) | (table.thrusts == 0.912)
        assert np.array_equal(table.saturated_count, at_bound.sum(axis=1))
        assert table.saturated_count.max() > 0
    # a pool worker sends the parent its exit code and message, not the
    # preallocated log
    out = tmp_path / "again.csv"
    outcome = cli._simulate_one(str(configs[0]), cli._load(configs[0]), out)
    printed = err.splitlines()[0]
    assert outcome == (4, [printed.replace(str(outdir / "one.csv"), str(out))])
    assert out.read_bytes() == (outdir / "one.csv").read_bytes()
    assert len(pickle.dumps(outcome)) < 10_000


def test_simulate_parses_each_config_once(tmp_path, monkeypatch):
    configs = [tmp_path / "one.cfg", tmp_path / "two.cfg"]
    for path in configs:
        write_hover_config(path, duration=0.01)
    loaded = []
    load_config = cli.config_mod.load_config

    def counting_load(path):
        loaded.append(str(path))
        return load_config(path)

    monkeypatch.setattr(cli.config_mod, "load_config", counting_load)
    code = cli.main(["simulate", *map(str, configs), "-o", str(tmp_path / "runs")])
    assert code == 0
    assert sorted(loaded) == sorted(map(str, configs))


def test_metrics_reports_errors(tmp_path, capsys):
    cfg = tmp_path / "hover.cfg"
    write_hover_config(cfg, duration=0.5, extra="  skip_s: 0.1\n")
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", str(cfg), "-o", str(out)]) == 0
    capsys.readouterr()
    code = cli.main(["metrics", str(out), "--skip-s", "0.1", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert max(payload["max_position_error_m"]) < 1e-6
    assert not payload["diverged"]


def test_metrics_window_from_config_unless_flag_given(tmp_path, capsys):
    cfg = tmp_path / "hover.cfg"
    write_hover_config(cfg, duration=0.5, extra="  skip_s: 0.1\n")
    bare = tmp_path / "bare.cfg"
    bare.write_text(cfg.read_text().split("scenario:")[0])
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", str(cfg), "-o", str(out)]) == 0
    capsys.readouterr()

    def window_start(*options):
        assert cli.main(["metrics", str(out), "--format", "json", *options]) == 0
        return json.loads(capsys.readouterr().out)["window_start_s"]

    assert window_start("--config", str(cfg)) == 0.1
    # the default 5 s window is empty on a 0.5 s run, so every row counts
    assert window_start() == 0.0
    assert window_start("--config", str(bare)) == 0.0
    assert window_start("--config", str(cfg), "--skip-s", "0.3") == 0.3
    assert window_start("--skip-s", "0.3") == 0.3


def test_metrics_window_past_the_end_reports_all_rows(tmp_path, capsys):
    cfg = tmp_path / "hover.cfg"
    write_hover_config(cfg, duration=0.1)
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", str(cfg), "-o", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["metrics", str(out), "--skip-s", "1000", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == 51
    assert payload["window_start_s"] == 0.0
    assert cli.main(["metrics", str(out), "--skip-s", "1000"]) == 0
    assert "(window from t = 0 s)" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_metrics_non_finite_skip_exits_2(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as info:
        cli.main(["metrics", str(tmp_path / "run.csv"), f"--skip-s={value}"])
    assert info.value.code == 2
    assert "--skip-s" in capsys.readouterr().err


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_metrics_non_finite_cell_is_diverged_and_null(tmp_path, capsys):
    cfg = tmp_path / "hover.cfg"
    write_hover_config(cfg, duration=0.1)
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", str(cfg), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[lines[0].split(",").index("qw")] = "nan"
    out.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    capsys.readouterr()
    code = cli.main(["metrics", str(out), "--skip-s", "0", "--format", "json"])
    payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert code == 4
    assert payload["diverged"] is True
    assert payload["max_attitude_error_deg"] == [None, None, None]
    assert max(payload["max_position_error_m"]) < 1e-6


def test_metrics_with_frame_config(fixture_outputs, capsys):
    csv = fixture_outputs.csv_dir / "exp1.csv"
    code = cli.main(["metrics", str(csv), "--config", str(FIXTURES / "exp1.cfg"),
                     "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert max(payload["max_position_error_m"]) < 0.05
    assert payload["max_attitude_error_deg"][2] < 2.0


def test_metrics_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n1,2\n")
    assert cli.main(["metrics", str(bad)]) == 2


def test_metrics_sat_count_out_of_range_exits_2(tmp_path, capsys):
    cfg = tmp_path / "hover.cfg"
    write_hover_config(cfg, duration=0.1)
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", str(cfg), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    lines[20] = lines[20].rsplit(",", 1)[0] + ",17"  # 16 rotors
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["metrics", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 21 has sat 17.0" in captured.err


def test_metrics_invalid_utf8_in_a_late_row_exits_2(tmp_path, capsys):
    cfg = tmp_path / "hover.cfg"
    write_hover_config(cfg, duration=2.5)
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", str(cfg), "-o", str(out)]) == 0
    lines = out.read_bytes().split(b"\r\n")
    # line 1200 of 1252, about 1 MB into the file: the reader has parsed
    # many rows before it decodes the bad byte
    lines[1199] = lines[1199].replace(b"0.", b"\xff.", 1)
    out.write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    assert cli.main(["metrics", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1200 is not" in captured.err
    assert "Traceback" not in captured.err


def test_analyze_out_of_range_eta_exits_2(tmp_path, capsys):
    bad = tmp_path / "steep.cfg"
    bad.write_text("modules:\n  - kind: T\n    eta_rad: 1.6\n    cell: [0, 0, 0]\n")
    code = cli.main(["analyze", str(bad)])
    assert code == 2
    assert "pi/2" in capsys.readouterr().err


def test_analyze_cells_beyond_the_grid_bound_exit_2(tmp_path, capsys):
    big = tmp_path / "big.cfg"
    big.write_text("modules:\n"
                   "  - {kind: T, eta_rad: 0.5, cell: [9007199254740993, 0, 0]}\n"
                   "  - {kind: T, eta_rad: -0.5, cell: [9007199254740992, 0, 0]}\n")
    assert cli.main(["analyze", str(big)]) == 2
    err = capsys.readouterr().err
    assert err == "".join(f"{big}: modules[{i}] (line {i + 2}): grid cells must lie "
                          "within +-1048576\n" for i in range(2))


HOVER = "{kind: hover}"


@pytest.mark.parametrize("command, trajectory, extra, physical, key", [
    ("analyze", "{kind: helix, z_period_s: -1}", "", "", "z_period_s"),
    ("analyze", "{kind: rectangle, lap_time_s: 0}", "", "", "lap_time_s"),
    ("analyze", "{kind: attitude_sine, period_s: 0}", "", "", "period_s"),
    ("simulate", HOVER, "  skip_s: .nan", "", "skip_s"),
    ("simulate", HOVER, "", "physical:\n  f_max_n: .inf", "f_max_n"),
    ("analyze", HOVER, "", "physical:\n  arm_m: .nan", "arm_m"),
    ("analyze", "{kind: quintic_chain, waypoints: [{position_m: [0, 0, 0]}, "
     "{position_m: [0, 0, 1]}], durations_s: [.inf]}", "", "", "durations_s"),
])
def test_bad_config_value_reported_once(tmp_path, capsys, command, trajectory,
                                        extra, physical, key):
    cfg = tmp_path / "bad.cfg"
    write_hover_config(cfg, 0.1, extra, physical, trajectory)
    argv = [command, str(cfg)] + (["-o", str(tmp_path / "x.csv")]
                                  if command == "simulate" else [])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and key in err[0]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("value", [".nan", ".inf"])
def test_non_finite_duration_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "bad.cfg"
    write_hover_config(cfg, duration=value)
    assert cli.main(["simulate", str(cfg), "-o", str(tmp_path / "x.csv")]) == 2
    assert "duration_s" in capsys.readouterr().err


@pytest.mark.parametrize("duration, dt_sim, key", [
    ("1.0e+18", 0.001, "tick-rotors"),
    (0.0, "1.0e-300", "substeps"),
])
def test_simulate_work_bound_exits_2(tmp_path, capsys, duration, dt_sim, key):
    cfg = tmp_path / "huge.cfg"
    write_hover_config(cfg, duration=duration, dt_sim=dt_sim)
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and key in err[0] and "bound" in err[0]
    assert not out.exists()


def test_analyze_decomposes_each_design_block_once(monkeypatch, capsys):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert cli.main(["analyze", str(FIXTURES / "exp4.cfg"), "--format", "json"]) == 0
    assert len(calls) == 3
    payload = json.loads(capsys.readouterr().out)
    sigma = [axis["semi_axis_n"] for axis in payload["ellipsoid"]]
    assert np.allclose(np.array(sigma) / sigma[0], payload["singular_values_normalized"])


def test_metrics_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["metrics", str(tmp_path / "missing.csv")]) == 2
    assert "missing.csv" in capsys.readouterr().err


def fail_if_flown(*args, **kwargs):
    raise AssertionError("flew before checking the outputs")


def test_simulate_checks_output_directory_before_flying(tmp_path, capsys,
                                                        monkeypatch):
    cfg = tmp_path / "hover.cfg"
    write_hover_config(cfg)
    monkeypatch.setattr(cli.simulation, "run_scenario", fail_if_flown)
    out = tmp_path / "no_such_dir" / "out.csv"
    assert cli.main(["simulate", str(cfg), "-o", str(out)]) == 2
    assert "no_such_dir" in capsys.readouterr().err


def test_simulate_rejects_clashing_outputs(tmp_path, capsys, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    write_hover_config(tmp_path / "a" / "x.cfg")
    write_hover_config(tmp_path / "b" / "x.cfg")
    monkeypatch.setattr(cli.simulation, "run_scenario", fail_if_flown)
    code = cli.main(["simulate", str(tmp_path / "a" / "x.cfg"),
                     str(tmp_path / "b" / "x.cfg"), "-o", str(tmp_path / "runs")])
    assert code == 2
    assert "overwrite" in capsys.readouterr().err


def test_simulate_rejects_missing_scenario_before_flying(tmp_path, capsys,
                                                       monkeypatch):
    write_hover_config(tmp_path / "good.cfg")
    (tmp_path / "nos.cfg").write_text(
        "modules:\n  - kind: T\n    eta_rad: 0.0\n    cell: [0, 0, 0]\n")
    monkeypatch.setattr(cli.simulation, "run_scenario", fail_if_flown)
    code = cli.main(["simulate", str(tmp_path / "good.cfg"), str(tmp_path / "nos.cfg"),
                     "-o", str(tmp_path / "runs")])
    assert code == 2
    assert "no scenario block" in capsys.readouterr().err


class RecordingPool:
    """Runs each job in this process and records the requested pool size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus, expected", [(2, 2), (8, 3)])
def test_simulate_caps_workers(tmp_path, monkeypatch, cpus, expected):
    configs = []
    for name in ("one", "two", "three"):
        configs.append(tmp_path / f"{name}.cfg")
        write_hover_config(configs[-1], duration=0.01)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code = cli.main(["simulate", *map(str, configs), "-o", str(tmp_path / "runs")])
    assert code == 0
    assert RecordingPool.sizes == [expected]
    assert len(list((tmp_path / "runs").glob("*.csv"))) == 3


# one config on many CPUs, or a CPU count the platform cannot tell
@pytest.mark.parametrize("n_configs, cpus", [(1, 8), (3, None)])
def test_simulate_one_worker_flies_without_pool(tmp_path, monkeypatch, n_configs, cpus):
    configs = []
    for i in range(n_configs):
        configs.append(tmp_path / f"c{i}.cfg")
        write_hover_config(configs[-1], duration=0.01)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    # a single config writes the file `-o` names, several write into that directory
    runs = tmp_path / "runs"
    runs.mkdir()
    out = runs / "c0.csv" if n_configs == 1 else runs
    code = cli.main(["simulate", *map(str, configs), "-o", str(out)])
    assert code == 0
    assert RecordingPool.sizes == []
    assert sorted(p.name for p in runs.glob("*.csv")) == [
        f"c{i}.csv" for i in range(n_configs)]


def test_importing_cli_and_telemetry_loads_no_process_pool():
    # only a pooled write, read or multi-config simulate imports them
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys, modquad.telemetry, modquad.cli; print(sorted("
            "{'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"


def test_writing_and_reading_a_forked_log_loads_no_process_pool(tmp_path):
    # on two CPUs the write's tail and the read's spans each fork a child,
    # and neither loads the process pool
    src = Path(cli.__file__).resolve().parent.parent
    code = (
        "import os, sys; from modquad import telemetry\n"
        "os.cpu_count, telemetry._SPAN_BYTES = lambda: 2, 1 << 12\n"
        "forks, fork = [], telemetry._fork_into_file\n"
        "telemetry._fork_into_file = lambda run: forks.append(run) or fork(run)\n"
        "log = telemetry.Telemetry(4, 3 * telemetry._BLOCK_ROWS, 1.0)\n"
        "log._floats[:, [7, 11, 15, 22, 26, 30]] = 1.0  # identity attitudes\n"
        "log._length = len(log._floats)\n"
        "telemetry.write_csv(log, sys.argv[1])\n"
        "assert len(telemetry.read_csv(sys.argv[1]).t) == len(log)\n"
        "print(len(forks), 'concurrent.futures.process' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run.csv")], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "2 False\n"


def test_simulate_forks_only_outside_its_config_workers(tmp_path, monkeypatch, forks):
    fork = telemetry._Encoder.__init__

    def marked_fork(encoder, log):
        """Marks each flight's encoder by the id of the process that forks it."""
        (tmp_path / f"encoder-{os.getpid()}").touch()
        fork(encoder, log)

    def encoders():
        return sorted(p.name for p in tmp_path.glob("encoder-*"))

    monkeypatch.setattr(telemetry._Encoder, "__init__", marked_fork)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    configs = [tmp_path / "c0.cfg", tmp_path / "c1.cfg"]
    for config in configs:
        write_hover_config(config, duration=3.0)  # 1501 rows, two blocks
    # one config flies in this process, which forks one encoder during the
    # flight; the write forks a child for its tail's second share, or none
    # where the encoder left one block or less
    alone = tmp_path / "alone.csv"
    assert cli.main(["simulate", str(configs[0]), "-o", str(alone)]) == 0
    assert encoders() == [f"encoder-{os.getpid()}"]
    assert forks.parents in ([os.getpid()], [os.getpid()] * 2)
    forks.assert_reaped()
    # two config workers on two CPUs encode their own CSVs, forking nothing
    started = len(forks.parents)
    (tmp_path / f"encoder-{os.getpid()}").unlink()
    runs = tmp_path / "runs"
    assert cli.main(["simulate", *map(str, configs), "-o", str(runs)]) == 0
    assert encoders() == [] and len(forks.parents) == started
    assert (runs / "c0.csv").read_bytes() == alone.read_bytes()


def test_simulate_prints_outcomes_in_config_order(tmp_path, monkeypatch, capsys):
    # the long flight is given first; two workers finish the short one first
    slow, fast = tmp_path / "slow.cfg", tmp_path / "fast.cfg"
    write_hover_config(slow, duration=3.0)
    write_hover_config(fast, duration=0.01)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    outdir = tmp_path / "runs"
    assert cli.main(["simulate", str(slow), str(fast), "-o", str(outdir)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"{slow}: 1501 rows -> {outdir / 'slow.csv'}",
                                         f"{fast}: 6 rows -> {outdir / 'fast.csv'}"]
    assert captured.err == ""


CHAIN = ("{kind: quintic_chain, waypoints: [{position_m: [0, 0, 0.5]}, "
         "{position_m: [0, 0, 0.6]}, {position_m: [0, 0, 0.7], rotation_rad: %s}], "
         "durations_s: %s}")


@pytest.mark.parametrize("trajectory, key", [
    ("{kind: helix, xy_period_s: 1.0e-300}", "xy_period_s"),
    ("{kind: helix, z_period_s: 1.0e-160}", "z_period_s"),
    ("{kind: rectangle, lap_time_s: 1.0e-300}", "lap_time_s"),
    (CHAIN % ("[0, 0, 0]", "[0.05, 1.0e-200]"), "durations_s[1]"),
    (CHAIN % ("[1.0e+200, 0, 0]", "[1.0, 1.0]"), "rotation_rad"),
    ("{kind: attitude_sine, period_s: 1.0e-310}", "period_s"),
    ("{kind: helix, yaw_period_s: 1.0e-310}", "yaw_period_s"),
    ("{kind: rectangle, lap_time_s: 1.0e-160}", "lap_time_s"),
], ids=["helix_xy", "helix_z", "rectangle", "chain_duration", "chain_rotation",
        "attitude_sine", "helix_yaw", "rectangle_subnormal"])
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_trajectory_time_scale_out_of_range_exits_2(tmp_path, capsys, command, trajectory,
                                                   key):
    # each of these used to end `simulate` in a traceback with exit 1, and
    # `analyze` exited 0; write_hover_config's structure is exp4's, so it is
    # 6-DOF and accepts every trajectory kind
    cfg = tmp_path / "bad.cfg"
    write_hover_config(cfg, 0.2, trajectory=trajectory)
    out = tmp_path / "x.csv"
    argv = [command, str(cfg)] + (["-o", str(out)] if command == "simulate" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = captured.err.splitlines()
    assert len(err) == 1 and "Traceback" not in captured.err
    # the trajectory block starts on line 22
    assert f"(line 22): {key} is out of range" in err[0]


EXP2 = (FIXTURES / "exp2.cfg").read_text()
EXP2_RECTANGLE = EXP2[EXP2.index("    kind: rectangle"):EXP2.index("  duration_s")]


@pytest.mark.parametrize("trajectory, keys, reach", [
    ("    kind: hover\n    point_m: [200.0, 0, 0]\n", "point_m is", "200"),
    ("    kind: hover\n    point_m: [1.0e+308, 0, 0]\n", "point_m is", "1e+308"),
    (EXP2_RECTANGLE.replace("length_m: 0.8", "length_m: 1.0e+308"),
     "length_m, width_m and height_m are", "5e+307"),
], ids=["hover", "hover_huge", "rectangle_huge"])
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_reference_past_the_divergence_radius_exits_2(tmp_path, capsys, command, trajectory,
                                                      keys, reach):
    # on exp2's structure `analyze` exited 0 on each of these, and `simulate`
    # exited 4 at t = 0.002 s: the flight starts on the reference
    cfg = tmp_path / "far.cfg"
    cfg.write_text(EXP2.replace(EXP2_RECTANGLE, trajectory))
    out = tmp_path / "x.csv"
    argv = [command, str(cfg)] + (["-o", str(out)] if command == "simulate" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    # the trajectory block starts on line 19
    assert captured.err == (f"{cfg}: scenario.trajectory (line 19): {keys} out of range: "
                            f"the reference reaches {reach} m from the origin, past the "
                            "100 m divergence radius\n")


def test_waypoint_past_the_divergence_radius_named_with_its_line(tmp_path, capsys):
    cfg = tmp_path / "far.cfg"
    write_hover_config(cfg, trajectory=(
        "\n    kind: quintic_chain\n    durations_s: [1.0, 1.0]\n    waypoints:\n"
        "      - position_m: [0, 0, 0.5]\n      - position_m: [0, 0, 0.6]\n"
        "      - position_m: [0, 120.0, 0]\n"))
    assert cli.main(["analyze", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: scenario.trajectory.waypoints[2] (line 28): position_m is out of " in err


def test_analysis_result_logged_at_info(caplog):
    with caplog.at_level(logging.INFO, logger="modquad"):
        assert cli.main(["analyze", str(FIXTURES / "exp1.cfg")]) == 0
    infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(infos) == 1
    assert "4-DOF" in infos[0] and "applicable True" in infos[0]


@pytest.mark.parametrize("text, key, line", [
    ("modules:\n  - {kind: T, eta_rad: 0.7, cell: [0, 0, 0]}\n"
     "physical:\n  f_max_n: 0.645\nphysical:\n  f_max_n: 9.0\n", "physical", 5),
    ("modules:\n  - kind: T\n    eta_rad: 0.7\n    cell: [0, 0, 0]\n    eta_rad: 0.1\n",
     "eta_rad", 5),
])
def test_analyze_repeated_key_exits_2_with_its_line(tmp_path, capsys, text, key, line):
    # the last value used to win silently
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    assert cli.main(["analyze", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"found duplicate key {key!r}" in captured.err
    assert f"line {line}," in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("physical", [
    "body_size_m: [1.0e-200, 1.0e-200, 1.0e-200]",  # singular inertia
    "body_size_m: [1.0e+200, 1.0e+200, 1.0e+200]",  # inertia overflows
    "module_mass_kg: 1.0e+308",  # weight overflows
])
def test_analyze_extreme_physical_values_exit_2(tmp_path, capsys, physical):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text("modules:\n  - {kind: T, eta_rad: 0.7, cell: [0, 0, 0]}\n"
                   f"physical:\n  {physical}\n")
    assert cli.main(["analyze", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{cfg}: structure weight, inertia and its inverse "
                            "must be finite\n")


@pytest.mark.parametrize("value", ["basic_format", "verbose", "", "5"])
def test_unknown_log_level_exits_2_before_any_work(tmp_path, capsys, monkeypatch, value):
    # BASIC_FORMAT is a string in `logging`, which once ended in a traceback,
    # and an unknown name silently meant WARNING
    monkeypatch.setenv("MODQUAD_LOG", value)
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", str(FIXTURES / "exp1.cfg"), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"MODQUAD_LOG={value!r} is not a log level: use "
                            "DEBUG, INFO, WARNING, ERROR or CRITICAL\n")


@pytest.mark.parametrize("value", ["debug", "INFO", "Warning", "ERROR", "critical"])
def test_log_level_names_accepted_in_any_case(capsys, monkeypatch, value):
    monkeypatch.setenv("MODQUAD_LOG", value)
    assert cli.main(["analyze", str(FIXTURES / "exp1.cfg")]) == 0
    assert "MODQUAD_LOG" not in capsys.readouterr().err
