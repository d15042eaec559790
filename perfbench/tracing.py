"""Spans around calls into modquad, recorded from outside the package.

The tracer wraps the names that `run_scenario` and `actuation` look up at
call time, plus the calls the benchmark itself makes, and restores every
name afterwards. A span is (name, start_ns, end_ns, parent index); spans
stay in memory until `write` puts them in a file. A patch point whose name
no longer exists is skipped, and the metrics that need it are reported as
not measured.
"""

import importlib
import statistics
import time
from contextlib import contextmanager

# (span name, modquad module, attribute path inside it)
PATCH_POINTS = (
    ("simulation.step", "simulation", ("step",)),
    ("simulation.motor_apply", "simulation", ("motor_apply",)),
    ("control.step", "control", ("Controller", "step")),
    ("simulation.append", "simulation", ("Telemetry", "append")),
    ("geometry.so3_exp", "geometry", ("so3_exp",)),
    ("geometry.orthonormalize", "geometry", ("orthonormalize",)),
    ("actuation.bounded_least_squares", "actuation", ("bounded_least_squares",)),
    ("actuation.static_hover_feasible", "actuation", ("static_hover_feasible",)),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = {}
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def patched(self):
        """Wrap every patch point that exists; restore them on exit."""
        installed = []
        try:
            for name, module, path in PATCH_POINTS:
                owner = importlib.import_module(f"modquad.{module}")
                for attr in path:
                    parent, owner = owner, getattr(owner, attr, None)
                    if owner is None:
                        self.missing[name] = (f"modquad.{module}."
                                              f"{'.'.join(path)} no longer exists")
                        break
                else:
                    setattr(parent, path[-1], self.wrap(name, owner))
                    installed.append((parent, path[-1], owner))
            yield self
        finally:
            for parent, attr, original in reversed(installed):
                setattr(parent, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_ns,end_ns,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index},{name},{start},{end},{parent}\n")


class SpanIndex:
    """Durations and parent links of a span list, queried by name."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = {}
        for index, span in enumerate(spans):
            self.by_name.setdefault(span[0], []).append(index)

    def _name_of(self, index):
        return self.spans[index][0] if index >= 0 else None

    def select(self, name, parent=None, ancestor=None):
        out = []
        for index in self.by_name.get(name, ()):
            if parent is not None and self._name_of(self.spans[index][3]) != parent:
                continue
            if ancestor is not None and not self._has_ancestor(index, ancestor):
                continue
            out.append(index)
        return out

    def _has_ancestor(self, index, name):
        index = self.spans[index][3]
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def durations_ns(self, indices):
        return [self.spans[i][2] - self.spans[i][1] for i in indices]

    def children(self, indices):
        wanted = set(indices)
        return [i for i, span in enumerate(self.spans) if span[3] in wanted]


class NotMeasured(Exception):
    """A per-layer metric that this run could not measure."""


# (metric, unit, patch points it needs)
LAYER_METRICS = (
    ("config.load_ms", "ms", ()),
    ("vehicle.build_ms", "ms", ()),
    ("actuation.analyze_ms", "ms", ()),
    ("actuation.bls_calls", "count", ("actuation.bounded_least_squares",)),
    ("actuation.bls_ms", "ms", ("actuation.bounded_least_squares",)),
    ("actuation.hover_checks", "count", ("actuation.static_hover_feasible",)),
    ("actuation.hover_check_ms", "ms", ("actuation.static_hover_feasible",)),
    ("trajectories.eval_us", "us", ()),
    ("trajectories.calls", "count", ()),
    ("control.step_us", "us", ("control.step",)),
    ("simulation.rk4_us", "us", ("simulation.step",)),
    ("simulation.rk4_steps", "count", ("simulation.step",)),
    ("geometry.so3_exp_per_rk4", "count", ("simulation.step", "geometry.so3_exp")),
    ("geometry.orthonormalize_calls", "count", ("geometry.orthonormalize",)),
    ("simulation.motor_us", "us", ("simulation.motor_apply",)),
    ("simulation.loop_self_us", "us", ()),
    ("simulation.append_us", "us", ("simulation.append",)),
    ("telemetry.write_us_per_row", "us", ()),
    ("telemetry.read_us_per_row", "us", ()),
    ("telemetry.metrics_us_per_row", "us", ()),
    ("telemetry.csv_bytes_per_row", "B", ()),
    ("simulation.saturation_frac", "ratio", ()),
    ("trace.overhead_frac", "ratio", ()),
)

_SCALE = {"ms": 1e-6, "us": 1e-3}


def _median(values):
    if not values:
        raise NotMeasured("no samples")
    return statistics.median(values)


def _ratio(numerator, denominator):
    if not denominator:
        raise NotMeasured("no samples")
    return numerator / denominator


def _compute(metric, unit, index, flights, overhead):
    """One per-layer metric from a span index and the traced flights.

    `flights` are FlightResult objects of the traced flights.
    """
    ticks = rows = sum(f.ticks for f in flights)
    intervals = sum(max(f.ticks - 1, 0) for f in flights)  # RK4 runs between ticks
    run = "simulation.run"
    if metric == "trace.overhead_frac":
        if overhead is None:
            raise NotMeasured("no traced/untraced pair")
        return overhead
    if metric == "telemetry.csv_bytes_per_row":
        return _ratio(sum(f.csv_bytes for f in flights), rows)
    if metric == "simulation.saturation_frac":
        return _ratio(sum(f.saturated for f in flights),
                      sum(f.ticks * f.rotors for f in flights))
    medians = {
        "config.load_ms": ("config.load", None),
        "vehicle.build_ms": ("vehicle.build", None),
        "actuation.analyze_ms": ("actuation.analyze", None),
        "actuation.bls_ms": ("actuation.bounded_least_squares", "actuation.analyze"),
        "actuation.hover_check_ms": ("actuation.static_hover_feasible",
                                     "actuation.pitch_limit"),
        "trajectories.eval_us": ("trajectories.eval", run),
        "control.step_us": ("control.step", None),
        "simulation.rk4_us": ("simulation.step", None),
        "simulation.motor_us": ("simulation.motor_apply", None),
        "simulation.append_us": ("simulation.append", None),
    }
    if metric in medians:
        name, parent = medians[metric]
        return _median(index.durations_ns(index.select(name, parent))) * _SCALE[unit]
    per_parent = {
        "actuation.bls_calls": ("actuation.bounded_least_squares", "actuation.analyze"),
        "actuation.hover_checks": ("actuation.static_hover_feasible",
                                   "actuation.pitch_limit"),
        "geometry.so3_exp_per_rk4": ("geometry.so3_exp", "simulation.step"),
    }
    if metric in per_parent:
        name, parent = per_parent[metric]
        return _ratio(len(index.select(name, parent)), len(index.select(parent)))
    if metric == "trajectories.calls":
        return _ratio(len(index.select("trajectories.eval", run)), ticks)
    if metric == "simulation.rk4_steps":
        return _ratio(len(index.select("simulation.step", ancestor=run)), intervals)
    if metric == "geometry.orthonormalize_calls":
        return _ratio(len(index.select("geometry.orthonormalize", ancestor=run)),
                      len(flights))
    if metric == "simulation.loop_self_us":
        runs = index.select(run)
        busy = sum(index.durations_ns(runs))
        covered = sum(index.durations_ns(index.children(runs)))
        return _ratio((busy - covered) * _SCALE[unit], ticks)
    per_row = {
        "telemetry.write_us_per_row": "telemetry.write",
        "telemetry.read_us_per_row": "telemetry.read",
        "telemetry.metrics_us_per_row": "telemetry.metrics",
    }
    if metric in per_row:
        spans = index.select(per_row[metric])
        if not spans:
            raise NotMeasured("no samples")
        return _ratio(sum(index.durations_ns(spans)) * _SCALE[unit], rows)
    raise KeyError(metric)


def layer_metrics(sources, missing, overhead):
    """Per-layer metrics and the reasons for those not measured.

    `sources` is a list of (spans, traced flights), most specific first: a
    metric comes from the first source that has samples for it.
    """
    values, not_measured = {}, {}
    indexed = [(SpanIndex(spans), flights) for spans, flights in sources]
    for metric, unit, needs in LAYER_METRICS:
        gone = [missing[name] for name in needs if name in missing]
        if gone:
            not_measured[metric] = "; ".join(gone)
            continue
        for index, flights in indexed:
            try:
                value = _compute(metric, unit, index, flights, overhead)
            except NotMeasured as exc:
                not_measured[metric] = str(exc)
                continue
            values[metric] = {"value": value, "unit": unit}
            not_measured.pop(metric, None)
            break
    return values, not_measured
