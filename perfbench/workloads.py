"""Inputs, operation sequences and output checks of the benchmark workloads.

Every workload is a closed loop with one caller: the next operation starts
only when the previous one has returned. Inputs come from the seed alone;
the program only ever sees the generated inputs (fixture files, an initial
state, YAML text).

- Flights follow the CLI sequence: load_config -> build_structure ->
  analyze_structure -> build_trajectory once (set-up), then per flight
  run_scenario -> write_csv -> read_csv -> compute_metrics.
- The sweep parses, builds and analyzes seeded random structures, and
  computes pitch limits for a fixed subset of them.
- The anchor items are identical on every workload and every seed: they
  check known answers (DOF of exp1/exp2/exp4, the exp4 pitch boundary) and
  supply samples for metrics that a workload's own loop does not produce.
"""

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import NO_CALIBRATION
from modquad import actuation, config, geometry, simulation, telemetry

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

G = 9.81

# Acceptance bounds on the window after skip_s: criterion 6a for exp1,
# criterion 6e for sim1. Roll/pitch bound None means unchecked.
TRACKING_BOUNDS = {
    "exp1": {"position_m": 0.05, "roll_pitch_deg": None, "yaw_deg": 2.0},
    "sim1": {"position_m": 0.02, "roll_pitch_deg": 5.0, "yaw_deg": 1.0},
}

FLIGHT_FIXTURES = {"fly_dof4": "exp1", "fly_dof6_wide": "sim1"}

OFFSET_POSITION_M = 0.02
OFFSET_ANGLE_RAD = math.radians(2.0)

# Exp4 at 0.645 N: m g sin t + m g cos t / sqrt(2) = 8 f_max gives 17.42 deg.
ANCHOR_PITCH_F_MAX = 0.645
ANCHOR_PITCH_TOL = 1e-4
ANCHOR_DOF = {"exp1": 4, "exp2": 5, "exp4": 6}
ANCHOR_FLIGHT_S = 2.0
# Back-to-back repeats of each structure's analysis, timed as their
# median: one analysis takes a few ms, and a pause of the VM can make one
# repeat take several times as long.
ANALYSIS_REPEATS = 3

# One sweep pass holds SWEEP_REPEATS structures of every (recipe, module
# count) pair, so every seed has the same mix. Each recipe's main angle is
# stratified: the pass uses the same evenly spaced levels on every seed and
# the seed only permutes them, draws cells and signs. Pitch limits run on
# PITCH_R_PARALLEL r_parallel structures (infeasible at level: one hover
# check) and PITCH_T_CHECKER t_checker ones (feasible at level: a full
# bisection), each at fixed module counts and evenly spaced angle levels,
# so the two cost modes keep a fixed ratio: the median falls at about the
# 77th percentile of the cheap mode and p75 at about the 26th of the costly
# one, clear of the gap.
SWEEP_MODULE_COUNTS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 14, 16)
SWEEP_REPEATS = 3
PITCH_R_PARALLEL = 32
PITCH_T_CHECKER = 18


class Direct:
    """Calls straight through; the tracer in tracing.py has the same API."""

    def wrap(self, name, fn):
        return fn

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


DIRECT = Direct()


def fixture_path(name):
    return FIXTURES / f"{name}.cfg"


# ---------------------------------------------------------------------------
# flights


def perturbed_initial_state(trajectory, analysis, seed):
    """Start on the reference, offset by at most 2 cm and 2 degrees."""
    rng = np.random.default_rng(seed)
    state = simulation.initial_state_on_trajectory(trajectory, analysis)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    radius = OFFSET_POSITION_M * rng.uniform() ** (1.0 / 3.0)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = OFFSET_ANGLE_RAD * rng.uniform()
    state.position = state.position + radius * direction
    state.attitude = state.attitude @ geometry.rodrigues(axis, angle)
    return state


@dataclass
class FlightResult:
    ticks: int = 0
    rotors: int = 0
    run_s: float = 0.0
    sequence_s: float = 0.0
    telemetry_s: float = 0.0
    simulated_s: float = 0.0
    csv_bytes: int = 0
    digest: str = ""
    saturated: int = 0
    problems: list = field(default_factory=list)


class Flight:
    """One fixture set up for repeated flights from one initial state."""

    def __init__(self, fixture, seed=None, duration_s=None, skip_s=None,
                 tracer=DIRECT):
        self.fixture = fixture
        self.cfg = tracer.call("config.load", config.load_config,
                               fixture_path(fixture))
        self.structure = tracer.call("vehicle.build", config.build_structure,
                                     self.cfg)
        self.analysis = tracer.call(
            "actuation.analyze", actuation.analyze_structure, self.structure,
            f_max=self.cfg.physical.f_max_n)
        self.trajectory = tracer.call(
            "trajectories.build", config.build_trajectory, self.cfg,
            self.analysis.controllable_dof)
        scenario = self.cfg.scenario
        self.duration_s = scenario.duration_s if duration_s is None else duration_s
        self.skip_s = scenario.skip_s if skip_s is None else skip_s
        self.initial_state = (
            simulation.initial_state_on_trajectory(self.trajectory, self.analysis)
            if seed is None else
            perturbed_initial_state(self.trajectory, self.analysis, seed))

    def fly(self, csv_path, tracer=DIRECT, calibrator=NO_CALIBRATION,
            source="main"):
        """Fly once, time it, and check the outputs. Never raises.

        Calibration units run between control ticks and between the steps
        after the flight; their time is left out of every timing."""
        cfg, scenario = self.cfg, self.cfg.scenario
        result = FlightResult(rotors=self.structure.n_rotors,
                              simulated_s=self.duration_s)
        trajectory = calibrator.paced(
            source, tracer.wrap("trajectories.eval", self.trajectory))
        try:
            paused = calibrator.spent_s
            start = time.perf_counter()
            log = tracer.call(
                "simulation.run", simulation.run_scenario, self.structure,
                self.analysis, cfg.gains, trajectory, duration=self.duration_s,
                dt_ctrl=scenario.dt_ctrl_s, dt_sim=scenario.dt_sim_s,
                motor=simulation.MotorModel(f_max=cfg.physical.f_max_n),
                initial_state=self.initial_state)
            ran = time.perf_counter()
            run_paused = calibrator.spent_s - paused
            calibrator.keep_up(source)
            tracer.call("telemetry.write", telemetry.write_csv, log, csv_path)
            calibrator.keep_up(source)
            table = tracer.call("telemetry.read", telemetry.read_csv, csv_path)
            calibrator.keep_up(source)
            report = tracer.call(
                "telemetry.metrics", telemetry.compute_metrics, table,
                skip_s=self.skip_s, frame_rotation=self.analysis.f_frame)
            done = time.perf_counter()
            sequence_paused = calibrator.spent_s - paused
        except Exception as exc:  # a failed flight is counted, not fatal
            result.problems.append(f"{self.fixture}: raised {exc!r}")
            return result
        result.ticks = len(log)
        result.run_s = ran - start - run_paused
        result.sequence_s = done - start - sequence_paused
        result.telemetry_s = result.sequence_s - result.run_s
        data = Path(csv_path).read_bytes()
        result.csv_bytes = len(data)
        result.digest = hashlib.sha256(data).hexdigest()
        result.saturated = int(np.sum(log.saturated))
        result.problems.extend(self.check(log, table, report))
        return result

    def check(self, log, table, report):
        problems = []
        name = self.fixture
        if log.diverged or report.diverged:
            problems.append(f"{name}: telemetry flagged diverged")
        if len(table.t) != len(log):
            problems.append(f"{name}: read back {len(table.t)} of {len(log)} rows")
        else:
            for column, written, read in (
                    ("t", log.t, table.t),
                    ("position", log.position, table.position),
                    ("velocity", log.velocity, table.velocity),
                    ("thrust", log.u_actual, table.thrusts)):
                if not np.array_equal(written, read):
                    problems.append(f"{name}: {column} differs after read_csv")
        bounds = TRACKING_BOUNDS[name]
        position = report.max_position_error
        roll, pitch, yaw = report.max_attitude_error_deg
        if not np.all(position < bounds["position_m"]):
            problems.append(f"{name}: position error {position.tolist()} m "
                            f"not below {bounds['position_m']}")
        if (bounds["roll_pitch_deg"] is not None
                and not max(roll, pitch) < bounds["roll_pitch_deg"]):
            problems.append(f"{name}: roll/pitch error {roll:.3f}/{pitch:.3f} "
                            f"deg not below {bounds['roll_pitch_deg']}")
        if not yaw < bounds["yaw_deg"]:
            problems.append(f"{name}: yaw error {yaw:.3f} deg not below "
                            f"{bounds['yaw_deg']}")
        return problems


# ---------------------------------------------------------------------------
# analysis


def check_analysis(label, structure, analysis):
    problems = []
    if analysis.controllable_dof not in (4, 5, 6):
        problems.append(f"{label}: DOF {analysis.controllable_dof}")
    if not geometry.is_rotation(analysis.f_frame):
        problems.append(f"{label}: thrust frame is not a rotation")
    if analysis.applicable and analysis.hover_residual > 1e-6 * structure.mass * G:
        problems.append(f"{label}: applicable with hover residual "
                        f"{analysis.hover_residual:.3e} N")
    return problems


def closed_form_pitch_limit(mass, f_max):
    """Root of m g sin t + m g cos t / sqrt(2) = 8 f_max (exp4 structure)."""
    a, b = mass * G, mass * G / math.sqrt(2.0)
    return math.asin(8.0 * f_max / math.hypot(a, b)) - math.atan2(b, a)


@dataclass
class SweepItem:
    """One generated structure: YAML text plus how it was drawn."""

    text: str
    recipe: str
    modules: int
    pitch: bool


def _cells(rng, count):
    """`count` distinct cells inside a random grid of at most 4 x 4."""
    rows = int(rng.integers(math.ceil(count / 4), 5))
    cols = int(rng.integers(math.ceil(count / rows), 5))
    flat = rng.choice(rows * cols, size=count, replace=False)
    return [(int(i) // cols, int(i) % cols) for i in sorted(flat)]


def _r_module(cell, axis, angle):
    tilt = "[1, 0, 0]" if axis == "x" else "[0, 1, 0]"
    return (f"  - kind: R\n    cell: [{cell[0]}, {cell[1]}, 0]\n"
            f"    tilt_axis: {tilt}\n    tilt_angle_rad: {angle!r}\n")


def _t_module(cell, eta):
    return (f"  - kind: T\n    cell: [{cell[0]}, {cell[1]}, 0]\n"
            f"    eta_rad: {eta!r}\n")


def _lerp(lo_deg, hi_deg, level):
    return math.radians(lo_deg + level * (hi_deg - lo_deg))


def _sign(rng):
    return float(rng.choice([-1.0, 1.0]))


def _recipe_modules(recipe, rng, cells, level):
    """Module entries for one recipe; `level` in (0, 1) sets its main angle.

    R modules that share a tilt axis keep the force rows at rank 1 or 2
    (DOF 4 or 5); mixed axes and T modules reach DOF 6. Tilts past 45
    degrees make rotor axes meet at an obtuse angle: inapplicable.
    """
    axis = "x" if rng.uniform() < 0.5 else "y"
    if recipe == "r_parallel":
        angle = _lerp(5.0, 25.0, level)
        return [_r_module(c, axis, angle) for c in cells]
    if recipe in ("r_shared_axis", "r_shared_axis_obtuse"):
        lo, hi = (5.0, 30.0) if recipe == "r_shared_axis" else (50.0, 70.0)
        angle = _lerp(lo, hi, level)
        return [_r_module(c, axis, (-1) ** i * angle) for i, c in enumerate(cells)]
    if recipe == "r_mixed_axes":
        angle = _lerp(5.0, 25.0, level)
        return [_r_module(c, "x" if rng.uniform() < 0.5 else "y",
                          _sign(rng) * angle) for c in cells]
    if recipe in ("t_checker", "t_checker_obtuse"):
        lo, hi = (20.0, 45.0) if recipe == "t_checker" else (50.0, 70.0)
        eta = _lerp(lo, hi, level)
        return [_t_module(c, eta * (-1) ** (c[0] + c[1])) for c in cells]
    if recipe == "rt_mix":
        eta, angle = _lerp(20.0, 45.0, level), _lerp(5.0, 25.0, level)
        return [_t_module(c, _sign(rng) * eta) if rng.uniform() < 0.5
                else _r_module(c, axis, _sign(rng) * angle) for c in cells]
    raise ValueError(f"unknown recipe {recipe!r}")


SWEEP_RECIPES = ("r_parallel", "r_shared_axis", "r_shared_axis_obtuse",
                 "r_mixed_axes", "t_checker", "t_checker_obtuse", "rt_mix")


def _level_order(rng, size, fixed):
    """Level index of each structure: those in `fixed` keep their own
    index on every seed, the seed permutes the others among themselves."""
    order = np.arange(size)
    free = np.array([k for k in range(size) if k not in fixed], dtype=int)
    order[free] = rng.permutation(free)
    return order


def sweep_inputs(seed, repeats=SWEEP_REPEATS, pitch_t_checker=PITCH_T_CHECKER):
    """The seeded structure set of one sweep pass, as YAML documents."""
    rng = np.random.default_rng(seed)
    per_recipe = repeats * len(SWEEP_MODULE_COUNTS)
    # Pitch-limited structures have the same module count and angle level
    # on every seed, so the seed does not move the pitch-limit statistics;
    # it draws their cells, tilt axis and signs.
    pitch_at = {
        recipe: set(np.linspace(0, per_recipe - 1, min(wanted, per_recipe))
                    .round().astype(int).tolist())
        for recipe, wanted in (("r_parallel", PITCH_R_PARALLEL),
                               ("t_checker", pitch_t_checker))}
    levels = {recipe: (_level_order(rng, per_recipe, pitch_at.get(recipe, set()))
                       + 0.5) / per_recipe
              for recipe in SWEEP_RECIPES}
    items = []
    for k in range(per_recipe):
        count = SWEEP_MODULE_COUNTS[k % len(SWEEP_MODULE_COUNTS)]
        for recipe in SWEEP_RECIPES:
            level = levels[recipe][k]
            modules = _recipe_modules(recipe, rng, _cells(rng, count), level)
            pitch = k in pitch_at.get(recipe, ())
            items.append(SweepItem("modules:\n" + "".join(modules), recipe,
                                   count, pitch=pitch))
    return items


@dataclass
class AnalysisResult:
    seconds: float = 0.0
    dof: int = 0
    applicable: bool = False
    problems: list = field(default_factory=list)


def analyze_text(label, text, tracer=DIRECT, repeats=1):
    """Parse, build and analyze one structure `repeats` times back to back.

    The result's time is the median repeat, which drops a repeat that a
    pause of the machine hit; the last repeat's outputs are checked.
    Returns (result, (structure, f_max))."""
    result = AnalysisResult()
    seconds = []
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            cfg = tracer.call("config.load", config.parse_config, text)
            structure = tracer.call("vehicle.build", config.build_structure, cfg)
            analysis = tracer.call("actuation.analyze", actuation.analyze_structure,
                                   structure, f_max=cfg.physical.f_max_n)
            seconds.append(time.perf_counter() - start)
    except Exception as exc:  # a failed analysis is counted, not fatal
        result.problems.append(f"{label}: raised {exc!r}")
        return result, None
    result.seconds = statistics.median(seconds)
    result.dof = analysis.controllable_dof
    result.applicable = bool(analysis.applicable)
    result.problems.extend(check_analysis(label, structure, analysis))
    return result, (structure, cfg.physical.f_max_n)


def pitch_limit(label, structure, f_max, tracer=DIRECT):
    """Time one pitch_feasibility_limit call. Returns (seconds, limit, problems)."""
    try:
        start = time.perf_counter()
        limit = tracer.call("actuation.pitch_limit",
                            actuation.pitch_feasibility_limit, structure,
                            f_max=f_max)
        seconds = time.perf_counter() - start
    except Exception as exc:  # a failed pitch limit is counted, not fatal
        return 0.0, None, [f"{label}: pitch limit raised {exc!r}"]
    if not 0.0 <= limit <= math.pi / 2:
        return seconds, limit, [f"{label}: pitch limit {limit!r} outside [0, pi/2]"]
    return seconds, limit, []
