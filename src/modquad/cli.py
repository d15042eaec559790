"""Command-line interface: analyze, simulate, and metrics subcommands.

Exit codes: 0 success, 2 config/schema error, 3 inapplicable design,
4 diverged simulation. Set MODQUAD_LOG=DEBUG (or INFO, WARNING, ...) for
logging verbosity.
"""

import argparse
import concurrent.futures
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import actuation, config as config_mod, simulation, telemetry, vehicle
from .errors import (
    InapplicableDesign,
    MalformedTelemetry,
    ModquadError,
    NonFiniteState,
    ParseError,
    SchemaError,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INAPPLICABLE = 3
EXIT_DIVERGED = 4

log = logging.getLogger("modquad")


def _configure_logging():
    level = os.environ.get("MODQUAD_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _report(path, exc):
    for problem in getattr(exc, "problems", [exc]):
        print(f"{path}: {problem}", file=sys.stderr)


def _load(path):
    try:
        return config_mod.load_config(path)
    except (ParseError, SchemaError, OSError, UnicodeDecodeError) as exc:
        _report(path, exc)
        raise SystemExit(EXIT_SCHEMA) from exc


def _analysis_payload(cfg, structure, analysis):
    balance = []
    for i, placement in enumerate(structure.placements):
        report = vehicle.check_torque_balance(placement.module)
        balance.append({
            "module": i,
            "kind": placement.module.kind,
            "balanced": bool(report.balanced),
            "residual_torque_nm": [float(x) for x in report.residual_torque],
            "unit_input_thrust_n": report.thrust_magnitude,
            "thrust_direction": [float(x) for x in report.thrust_direction],
        })
    return {
        "mass_kg": structure.mass,
        "n_modules": structure.n_modules,
        "torque_balance": balance,
        "rank_design": analysis.rank_total,
        "rank_force_rows": analysis.rank_force,
        "rank_torque_rows": analysis.rank_torque,
        "dependent_force_rows": analysis.dependent_force_rows,
        "controllable_dof": analysis.controllable_dof,
        "singular_values_normalized": [float(s) for s in analysis.singular_values],
        "ellipsoid": [
            {"semi_axis_n": float(s), "direction": [float(x) for x in axis]}
            for s, axis in zip(analysis.force_sigma, analysis.force_axes.T)
        ],
        "f_frame": [[float(x) for x in row] for row in analysis.f_frame],
        "f_frame_tie_broken": bool(analysis.tie_broken),
        "dimensioning_rows": len(analysis.wrench_rows),
        "dimensioning": np.eye(6)[analysis.wrench_rows].tolist(),
        "applicable": bool(analysis.applicable),
        "hover_residual_n": float(analysis.hover_residual),
        "f_max_n": cfg.physical.f_max_n,
    }


def _print_analysis_text(payload):
    print(f"structure: {payload['n_modules']} modules, "
          f"{payload['mass_kg']:.4f} kg")
    for row in payload["torque_balance"]:
        status = "balanced" if row["balanced"] else "UNBALANCED"
        print(f"  module {row['module']} ({row['kind']}): {status}, "
              f"unit-input thrust {row['unit_input_thrust_n']:.4f} N along "
              f"[{', '.join(f'{x:.4f}' for x in row['thrust_direction'])}]")
    print(f"rank(A) = {payload['rank_design']}, "
          f"rank(A_f) = {payload['rank_force_rows']}, "
          f"rank(A_tau) = {payload['rank_torque_rows']}, "
          f"dependent force rows = {payload['dependent_force_rows']}")
    print(f"controllable DOF: {payload['controllable_dof']}")
    print("force singular values (normalized): "
          + ", ".join(f"{s:.6f}" for s in payload["singular_values_normalized"]))
    print("actuation ellipsoid semi-axes:")
    for axis in payload["ellipsoid"]:
        print(f"  {axis['semi_axis_n']:.4f} N along "
              f"[{', '.join(f'{x:.4f}' for x in axis['direction'])}]")
    print("thrust frame rotation (structure -> F):")
    for row in payload["f_frame"]:
        print("  [" + ", ".join(f"{x: .6f}" for x in row) + "]")
    if payload["f_frame_tie_broken"]:
        print("  (equal singular values; axes chosen closest to the structure frame)")
    print(f"dimensioning matrix: {payload['dimensioning_rows']} of 6 wrench rows")
    print(f"applicable: {payload['applicable']} "
          f"(hover residual {payload['hover_residual_n']:.2e} N "
          f"at f_max {payload['f_max_n']} N)")


def _build_and_analyze(path, cfg):
    try:
        structure = config_mod.build_structure(cfg)
        analysis = actuation.analyze_structure(structure, f_max=cfg.physical.f_max_n)
    except ModquadError as exc:
        _report(path, exc)
        raise SystemExit(EXIT_SCHEMA) from exc
    _log_analysis(path, analysis)
    return structure, analysis


def _log_analysis(path, analysis):
    log.info("%s: %d-DOF, applicable %s, hover residual %.3g N", path,
             analysis.controllable_dof, analysis.applicable, analysis.hover_residual)


def cmd_analyze(args):
    cfg = _load(args.config)
    structure, analysis = _build_and_analyze(args.config, cfg)
    payload = _analysis_payload(cfg, structure, analysis)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        _print_analysis_text(payload)
    if not analysis.applicable:
        print("design is inapplicable: cannot hover along its thrust axis "
              "with non-negative bounded thrusts", file=sys.stderr)
        return EXIT_INAPPLICABLE
    return EXIT_OK


def _simulate_one(config_path, cfg, output_path):
    """Fly one parsed config and write its telemetry; returns the row count."""
    structure = config_mod.build_structure(cfg)
    analysis = actuation.analyze_structure(structure, f_max=cfg.physical.f_max_n)
    _log_analysis(config_path, analysis)
    trajectory = config_mod.build_trajectory(cfg, analysis.controllable_dof)
    motor = simulation.MotorModel(f_max=cfg.physical.f_max_n)
    try:
        log_data = simulation.run_scenario(
            structure, analysis, cfg.gains, trajectory,
            duration=cfg.scenario.duration_s,
            dt_ctrl=cfg.scenario.dt_ctrl_s, dt_sim=cfg.scenario.dt_sim_s,
            motor=motor,
        )
    except NonFiniteState as exc:
        telemetry.write_csv(exc.telemetry, output_path)
        exc.telemetry = None  # a pool worker would pickle the whole log to the parent
        raise
    telemetry.write_csv(log_data, output_path)
    return len(log_data)


def _output_paths(configs, output):
    """Output CSV of each config: `output` itself for one config, else one
    file per config stem inside the directory `output`. Exits 2 before any
    flight when the outputs clash or cannot be written."""
    if len(configs) == 1:
        paths = [Path(output)]
    else:
        paths = [Path(output) / (Path(c).stem + ".csv") for c in configs]
        if len(set(paths)) != len(paths):
            print(f"{output}: two configs share a file name, so their CSVs "
                  "would overwrite each other", file=sys.stderr)
            raise SystemExit(EXIT_SCHEMA)
        try:
            Path(output).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _report(output, exc)
            raise SystemExit(EXIT_SCHEMA) from exc
    for path in paths:
        if path.is_dir() or not path.parent.is_dir():
            print(f"{path}: not a file in an existing directory", file=sys.stderr)
            raise SystemExit(EXIT_SCHEMA)
    return paths


def cmd_simulate(args):
    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_SCHEMA
    # parse every config once, up front, so schema errors exit 2 before any flight
    configs = [_load(config_path) for config_path in args.configs]
    for config_path, cfg in zip(args.configs, configs):
        if cfg.scenario is None:
            print(f"{config_path}: config has no scenario block", file=sys.stderr)
            return EXIT_SCHEMA
    jobs = list(zip(args.configs, configs, _output_paths(args.configs, args.output)))
    # under fork a process pool starts all its workers at once
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    status = EXIT_OK
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_simulate_one, *job): job for job in jobs}
            for future in concurrent.futures.as_completed(futures):
                status = max(status, _report_sim_result(future, *futures[future]))
    else:
        for job in jobs:
            status = max(status, _report_sim_result(None, *job))
    return status


def _report_sim_result(future, cfg_path, cfg, out):
    try:
        rows = (future.result() if future is not None
                else _simulate_one(cfg_path, cfg, out))
    except NonFiniteState as exc:
        print(f"{cfg_path}: {exc} (partial telemetry in {out})", file=sys.stderr)
        return EXIT_DIVERGED
    except InapplicableDesign as exc:
        print(f"{cfg_path}: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (ModquadError, OSError) as exc:
        _report(cfg_path, exc)
        return EXIT_SCHEMA
    print(f"{cfg_path}: {rows} rows -> {out}")
    return EXIT_OK


def _finite_float(text):
    """argparse type for a finite float; nan and inf exit 2 like a bad number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _json_number(x):
    """x as a float, or None (JSON null) where JSON has no number for it."""
    return float(x) if np.isfinite(x) else None


def cmd_metrics(args):
    try:
        table = telemetry.read_csv(args.telemetry)
    except (MalformedTelemetry, OSError, UnicodeDecodeError) as exc:
        _report(args.telemetry, exc)
        return EXIT_SCHEMA
    frame_rotation, scenario = None, config_mod.ScenarioParams  # the schema's defaults
    if args.config is not None:
        cfg = _load(args.config)
        _, analysis = _build_and_analyze(args.config, cfg)
        frame_rotation = analysis.f_frame
        scenario = cfg.scenario or scenario
    skip_s = scenario.skip_s if args.skip_s is None else args.skip_s
    report = telemetry.compute_metrics(table, skip_s=skip_s, frame_rotation=frame_rotation)
    payload = {
        "samples": report.samples,
        "window_start_s": _json_number(report.window_start),
        "max_position_error_m": [_json_number(x) for x in report.max_position_error],
        "rms_position_error_m": [_json_number(x) for x in report.rms_position_error],
        "max_attitude_error_deg": [_json_number(x) for x in report.max_attitude_error_deg],
        "rms_attitude_error_deg": [_json_number(x) for x in report.rms_attitude_error_deg],
        "saturation_fraction": _json_number(report.saturation_fraction),
        "diverged": report.diverged,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"samples: {report.samples} (window from t = "
              f"{report.window_start:g} s)")
        for label, vec in [("max |position error| (m) ", report.max_position_error),
                           ("rms position error (m)   ", report.rms_position_error),
                           ("max |attitude error| (deg)", report.max_attitude_error_deg),
                           ("rms attitude error (deg)  ", report.rms_attitude_error_deg)]:
            print(f"{label}: x={vec[0]:.6f}  y={vec[1]:.6f}  z={vec[2]:.6f}")
        print(f"saturation fraction: {report.saturation_fraction:.4f}")
        print(f"diverged: {report.diverged}")
    return EXIT_DIVERGED if report.diverged else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modquad",
        description="Model, analyze, and simulate modular multi-rotor structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="static actuation analysis")
    p_analyze.add_argument("config")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run closed-loop scenarios")
    p_sim.add_argument("configs", nargs="+")
    p_sim.add_argument("-o", "--output", required=True,
                       help="output CSV (or directory for several configs)")
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for several configs")
    p_sim.set_defaults(func=cmd_simulate)

    p_metrics = sub.add_parser("metrics", help="tracking metrics from telemetry")
    p_metrics.add_argument("telemetry")
    p_metrics.add_argument("--skip-s", type=_finite_float, default=None,
                           help="transient window to exclude (s; default: the "
                                "config's scenario.skip_s, else 5)")
    p_metrics.add_argument("--config", default=None,
                           help="config to recover the thrust-frame rotation")
    p_metrics.add_argument("--format", choices=("text", "json"), default="text")
    p_metrics.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None):
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
