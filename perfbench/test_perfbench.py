"""The benchmark's own tests: every workload at a tiny size, and the checks.

Workers run in-process with shrunken sizes; the metric names and units
printed must be exactly the ones BENCHMARK.json declares. The failure tests
break one output on purpose and require the failure to be counted.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from modquad import telemetry  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = worker.Sizes(flight_s=3.0, skip_s=2.5, sweep_repeats=1, pitch_t_checker=2,
                    anchor_flight_s=0.5, overhead_pairs=2, analysis_repeats=2)


def in_process(args, extra, timeout):
    """Stand-in for run.spawn_worker that runs the worker here at TINY size."""
    started = time.monotonic()
    seconds = float(extra[extra.index("--seconds") + 1]) if "--seconds" in extra else 0.0
    trace = "--trace" in extra and extra[extra.index("--trace") + 1] == "1"
    out = worker.run(args.workload, args.seed, seconds, trace=trace,
                     probe="--probe" in extra, sizes=TINY)
    out["setup_s"] = out["setup_done"] - started
    out["start_reference_s"] = run.REFERENCE_START_S
    return out


def bench(capsys, workload, trace, seed=0):
    status = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                       "--trace", str(trace)], spawn=in_process)
    assert status == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    info, result = bench(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["details"]["failed_frac"] == 0.0
    assert info["environment"]["seed"] == 0
    assert {"nproc", "python", "numpy", "loadavg_start"} <= set(info["environment"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_printed_with_units(capsys, workload):
    info, result = bench(capsys, workload, trace=1)
    assert result["correct"], info["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert info["details"]["not_measured"] == {}
    # Two solves per analysis, one when the rotor-axis check already fails.
    bls_calls = result["metrics"]["actuation.bls_calls"]["value"]
    assert bls_calls == 2.0 if workload != "analyze_sweep" else 1.0 < bls_calls < 2.0
    assert result["metrics"]["geometry.so3_exp_per_rk4"]["value"] == 3.0
    assert result["metrics"]["simulation.rk4_steps"]["value"] == 2.0


def test_sweep_properties_cover_every_dof_and_both_outcomes(capsys):
    info, _ = bench(capsys, "analyze_sweep", trace=0)
    props = info["workload_properties"]
    outcomes = props["by_dof_and_applicable"]
    assert {key.split("-")[0] for key in outcomes} == {"dof4", "dof5", "dof6"}
    assert {key.split("-")[1] for key in outcomes} == {"applicable", "inapplicable"}
    assert props["module_count_range"] == [1, 16]


def test_same_seed_gives_same_inputs_and_csv(capsys):
    assert [i.text for i in wl.sweep_inputs(5, 1)] == [i.text for i in wl.sweep_inputs(5, 1)]
    first, _ = bench(capsys, "fly_dof4", trace=0, seed=7)
    second, _ = bench(capsys, "fly_dof4", trace=0, seed=7)
    digests = first["workload_properties"]["csv_sha256"]
    assert digests == second["workload_properties"]["csv_sha256"]
    assert len(digests["main"]) == 1


def test_missing_patch_point_is_not_measured(capsys, monkeypatch):
    from modquad import geometry
    monkeypatch.delattr(geometry, "orthonormalize")
    info, result = bench(capsys, "fly_dof4", trace=1)
    assert "geometry.orthonormalize_calls" not in result["metrics"]
    assert "no longer exists" in info["details"]["not_measured"][
        "geometry.orthonormalize_calls"]


def test_tampered_csv_is_counted_as_failed(capsys, monkeypatch):
    real_write = telemetry.write_csv

    def write_then_tamper(log, path):
        real_write(log, path)
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[-1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-9)
        lines[-1] = ",".join(cells)
        Path(path).write_text("".join(lines), encoding="utf-8")

    monkeypatch.setattr(telemetry, "write_csv", write_then_tamper)
    info, result = bench(capsys, "fly_dof4", trace=0)
    assert result["failed"] > 0 and not result["correct"]
    assert info["details"]["failed_frac"] > 0
    assert any("position differs after read_csv" in f for f in info["failures"])


def test_impossible_tracking_bound_is_counted_as_failed(capsys, monkeypatch):
    monkeypatch.setitem(wl.TRACKING_BOUNDS, "sim1",
                        dict(wl.TRACKING_BOUNDS["sim1"], position_m=0.0))
    info, result = bench(capsys, "fly_dof6_wide", trace=0)
    assert result["failed"] > 0 and not result["correct"]
    assert info["details"]["failed_frac"] > 0
    assert any("sim1: position error" in f for f in info["failures"])


def test_checkout_without_program_exits_nonzero(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    status = run.main(["--workload", "fly_dof4", "--seed", "0", "--seconds", "1"],
                      spawn=in_process)
    assert status != 0
    assert capsys.readouterr().out == ""


def test_tail_level_leaves_ten_samples_beyond():
    assert run.tail_level(252) == 95.0
    assert run.tail_level(50) == 75.0
    assert run.tail_level(11) == 50.0


def test_calibration_time_is_left_out_of_flight_times(tmp_path):
    flight = wl.Flight("exp1", duration_s=0.5, skip_s=0.0)
    calibrator = calibration.Calibrator(share=0.5)
    start = time.perf_counter()
    result = flight.fly(tmp_path / "flight.csv", calibrator=calibrator)
    wall = time.perf_counter() - start
    units, seconds = calibrator.units["main"]
    assert not result.problems and units > 1
    assert result.sequence_s + seconds <= wall
    assert result.run_s + result.telemetry_s == pytest.approx(result.sequence_s)


def test_scale_factors_per_source_fall_back_to_overall():
    factors = run.scale_factors({"main": {"units": 10, "seconds": 0.2}})
    expected = calibration.REFERENCE_UNIT_S * 10 / 0.2
    assert factors == pytest.approx({"all": expected, "main": expected,
                                     "anchor": expected})
