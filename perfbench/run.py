"""modquad benchmark: closed-loop flights and an actuation sweep.

    python3 perfbench/run.py --workload fly_dof4 --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout. Workloads: fly_dof4, fly_dof6_wide,
analyze_sweep (see README.md beside this file). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run. The line before it records the
environment, the workload properties and the failures.

Every end-to-end time is scaled to a reference machine speed by the
calibration units that ran beside it (calibration.py); the details line
holds the scale factors, so the wall times can be recovered. Set-up is
timed in fresh worker processes that stop after set-up, half of them before
the measuring worker and half after it, which adds one more sample. Right
before each, a bare interpreter that imports the program's dependencies is
timed; set-up is scaled by it instead, because process start and imports
drift with the VM apart from the calibration units.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from calibration import REFERENCE_UNIT_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("fly_dof4", "fly_dof6_wide", "analyze_sweep")
SETUP_PROBES = 8
# A bare interpreter importing modquad's dependencies, and its wall time on
# the reference machine; set-up times are scaled by it.
START_REFERENCE = ("-c", "import numpy, yaml")
REFERENCE_START_S = 0.2
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class BenchError(Exception):
    pass


def _checkout_problem():
    for needed in ("src/modquad/__init__.py", "src/modquad/simulation.py",
                   "fixtures/exp1.cfg", "fixtures/sim1.cfg", "fixtures/exp4.cfg"):
        if not (ROOT / needed).is_file():
            return f"{needed} is missing: run from the root of a modquad checkout"
    return None


def spawn_worker(args, extra, timeout):
    """Run one worker to completion, after timing the bare interpreter start
    just before it; the worker's last stdout line is JSON."""
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        started = time.monotonic()
        subprocess.run([sys.executable, *START_REFERENCE], cwd=ROOT, env=env,
                       check=True, capture_output=True, text=True,
                       timeout=PROBE_TIMEOUT_S)
        reference_s = time.monotonic() - started
        started = time.monotonic()
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {exc.timeout} s: {exc.cmd}") from exc
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"the bare interpreter start failed:\n{exc.stderr[-4000:]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    out = json.loads(lines[-1])
    out["setup_s"] = out["setup_done"] - started
    out["start_reference_s"] = reference_s
    return out


def tail_level(count):
    """Highest ladder percentile with at least 10 of `count` samples beyond
    it; the median when there are fewer than 20."""
    fitting = [p for p in TAIL_LADDER if count * (1.0 - p / 100.0) >= 10.0]
    return max(fitting, default=50.0)


def scale_factors(calibration):
    """Reference over measured calibration speed, per source and overall
    ("all"); a source without units of its own takes the overall one."""
    def factor(books):
        units = sum(b["units"] for b in books)
        return REFERENCE_UNIT_S * units / sum(b["seconds"] for b in books) if units else None

    overall = factor(list(calibration.values()))
    if overall is None:
        raise BenchError("no calibration unit ran")
    factors = {"all": overall}
    for source in ("main", "anchor"):
        factors[source] = factor([calibration[source]]) if source in calibration else overall
    return factors


def per_input(samples, name, unit, scale, details):
    """Median and tail over inputs of each input's mean repeat (ms)."""
    costs = [1e3 * scale * statistics.fmean(repeats) for repeats in samples.values()]
    if not costs:
        raise BenchError(f"no {name} samples")
    level = tail_level(len(costs))
    repeats = [len(r) for r in samples.values()]
    details[name] = {"inputs": len(costs), "repeats": [min(repeats), max(repeats)],
                     "tail_percentile": level}
    return {name: {"value": statistics.median(costs), "unit": unit},
            f"{name}_tail": {"value": float(numpy.percentile(costs, level)),
                                 "unit": unit}}


def end_to_end(out, setups):
    samples, sources = out["samples"], out["sources"]
    flights = samples["flights"]
    if not flights:
        raise BenchError("no untraced flight completed")
    factors = scale_factors(out["calibration"])
    details = {"sources": sources, "tick_us": {"flights": len(flights)},
               "setup_s": {"wall_samples": [s["setup_s"] for s in setups],
                           "start_reference_s": [s["start_reference_s"]
                                                 for s in setups]},
               "calibration": {"reference_unit_s": REFERENCE_UNIT_S,
                               "scale": factors, "units": out["calibration"]}}
    # Totals over the run's flights average the VM's fast and slow spells
    # in proportion (see README.md, "Machine noise").
    flight_scale = factors[sources["tick_us"]]
    run_s = flight_scale * sum(f["run_s"] for f in flights)
    tick_us = 1e6 * run_s / sum(f["ticks"] for f in flights)
    realtime = (sum(f["simulated_s"] for f in flights)
                / (run_s + flight_scale * sum(f["telemetry_s"] for f in flights)))
    metrics = {
        "setup_s": {"value": statistics.median(
            REFERENCE_START_S * s["setup_s"] / s["start_reference_s"] for s in setups),
            "unit": "s"},
        "tick_us": {"value": tick_us, "unit": "us"},
        "realtime_factor": {"value": realtime, "unit": "s/s"},
        **per_input(samples["analysis_s"], "analysis_ms", "ms",
                    factors[sources["analysis"]], details),
        **per_input(samples["pitch_limit_s"], "pitch_limit_ms", "ms",
                    factors[sources["pitch_limit"]], details),
        "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
    }
    return metrics, details


def environment(args, load):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": load,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None, spawn=spawn_worker):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = _checkout_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    load = list(os.getloadavg())
    try:
        probes = 0 if args.trace else SETUP_PROBES

        def probe():
            return spawn(args, ["--probe"], PROBE_TIMEOUT_S)

        setups = [probe() for _ in range(probes // 2)]
        out = spawn(args, ["--seconds", str(args.seconds),
                           "--trace", str(args.trace)], WORKER_TIMEOUT_S)
        setups.append(out)
        setups.extend(probe() for _ in range(probes - probes // 2))
        if args.trace:
            metrics, details = out["layers"], {
                "not_measured": out["not_measured"], "spans_file": out["spans_file"]}
        else:
            try:
                metrics, details = end_to_end(out, setups)
            except BenchError as exc:
                if not out["failed"]:
                    raise
                # Failed operations left nothing to time; report the failures.
                metrics, details = {}, {"metrics_error": str(exc)}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = out["attempted"], out["failed"]
    details["failed_frac"] = failed / attempted
    print(json.dumps({"environment": environment(args, load),
                      "workload_properties": out["props"],
                      "details": details,
                      "failures": out["failures"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
