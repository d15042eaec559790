"""One benchmark worker process: set-up, then the timed loop.

Started by run.py. With --probe it stops after set-up and prints only the
time set-up finished. Otherwise it repeats rounds of the workload's own
operations (one flight, or one pass over the sweep's structures) until
--seconds have passed, and prints one JSON object with the samples, counts,
failures and workload properties.

After every operation, the anchor items (every fixture's analysis, the
exp4 pitch limit, a short exp1 flight) run round-robin while they have used
less than ANCHOR_SHARE of the run so far. On the sweep that puts them
between structures, so their samples see the same mix of machine load as
the workload's own steps.

Calibration units (calibration.py) run between all of these and between
control ticks, booked to the workload's own steps ("main") or to the anchor
items ("anchor"); run.py scales each source's times by its units' speed.

With --trace 1 every operation and anchor item runs traced, no calibration
unit runs, and the run ends with adjacent untraced/traced pairs of the
anchor flight that give the tracer's overhead.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
ANCHOR_SHARE = 0.3
MAX_REPORTED_FAILURES = 20


@dataclass
class Sizes:
    """Run sizes; the defaults are the benchmark's, tests shrink them."""

    flight_s: float = None
    skip_s: float = None
    sweep_repeats: int = wl.SWEEP_REPEATS
    pitch_t_checker: int = wl.PITCH_T_CHECKER
    anchor_flight_s: float = wl.ANCHOR_FLIGHT_S
    analysis_repeats: int = wl.ANALYSIS_REPEATS
    overhead_pairs: int = 6


class Ledger:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_REPORTED_FAILURES - len(self.failures)
            self.failures.extend(problems[:max(room, 0)])


class Worker:
    def __init__(self, workload, seed, trace=False, sizes=None):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.sizes = sizes or Sizes()
        self.flying = workload in wl.FLIGHT_FIXTURES
        self.ledger = Ledger()
        self.tracers = {"main": Tracer(), "anchor": Tracer()} if trace else {}
        self.traced_flights = {"main": [], "anchor": []}
        self.digests = {"main": set(), "anchor": set()}
        # Timed samples come from the workload's own steps where it has
        # them, otherwise from the anchor items.
        self.sources = {"tick_us": "main" if self.flying else "anchor",
                        "analysis": "anchor" if self.flying else "main",
                        "pitch_limit": "anchor" if self.flying else "main"}
        self.samples = {"flights": [], "analysis_s": {}, "pitch_limit_s": {}}
        self.props = {}
        self.outcomes = {}
        self.overhead = None
        self.anchor_next = 0
        self.anchor_done = set()
        self.anchor_s = 0.0
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        self.csv_paths = {"main": OUT_DIR / f"{stem}.csv",
                          "anchor": OUT_DIR / f"{stem}-anchor.csv"}

    def _traced(self, source, traced):
        tracer = self.tracers.get(source) if traced else None
        return (tracer or wl.DIRECT), (tracer.patched() if tracer else nullcontext())

    def setup(self):
        if self.flying:
            tracer, patched = self._traced("main", self.trace)
            with patched:
                self.flight = wl.Flight(
                    wl.FLIGHT_FIXTURES[self.workload], seed=self.seed,
                    duration_s=self.sizes.flight_s, skip_s=self.sizes.skip_s,
                    tracer=tracer)

    def run(self, seconds):
        if self.flying:
            operations = [partial(self.fly, self.flight, "main", self.trace)]
        else:
            self.items = wl.sweep_inputs(self.seed, self.sizes.sweep_repeats,
                                         self.sizes.pitch_t_checker)
            operations = [partial(self.sweep_item, i, item)
                          for i, item in enumerate(self.items)]
        self.prepare_anchors()
        self.calibrator = calibration.Calibrator(
            share=0.0 if self.trace else calibration.SHARE)
        self.run_start = time.perf_counter()
        deadline = self.run_start + seconds
        # The first round always completes. After it, an operation starts
        # only if half of its previous duration fits before the deadline,
        # so a run ends within half an operation of --seconds; a sweep
        # pass may end part way.
        durations = [0.0] * len(operations)
        self.rounds = 0
        operations_run = 0
        stopped = False
        while not stopped:
            for i, operation in enumerate(operations):
                start = time.perf_counter()
                if self.rounds and start + durations[i] / 2 > deadline:
                    stopped = True
                    break
                operation()
                durations[i] = time.perf_counter() - start
                operations_run += 1
                self.calibrator.keep_up("main")
                self.anchors_to_share()
            else:
                self.rounds += 1
                if self.rounds == 1:
                    self.props["peak_rss_mb_first_round"] = _peak_rss_mb()
        # Every anchor check runs at least once per run.
        while len(self.anchor_done) < len(self.anchor_items):
            self.run_anchor_item()
        self.props["rounds"] = operations_run / len(operations)
        self.props["anchor_share"] = self.anchor_s / (time.perf_counter() - self.run_start)
        if self.trace:
            self.overhead = self.measure_overhead()
        self.describe()

    # -- the workload's own operations ---------------------------------------

    def fly(self, flight, source, traced):
        tracer, patched = self._traced(source, traced)
        try:
            with patched:
                result = flight.fly(self.csv_paths[source], tracer,
                                    self.calibrator, source)
        finally:
            self.csv_paths[source].unlink(missing_ok=True)
        if result.digest:
            self.digests[source].add(result.digest)
            if len(self.digests[source]) > 1:
                result.problems.append(
                    f"{flight.fixture}: CSV digest differs between repeats")
        self.ledger.record(result.problems)
        if traced:
            self.traced_flights[source].append(result)
        elif source == self.sources["tick_us"] and result.ticks:
            self.samples["flights"].append({
                "run_s": result.run_s, "telemetry_s": result.telemetry_s,
                "ticks": result.ticks, "simulated_s": result.simulated_s})
        self.props.setdefault(f"{source}_flight", {
            "fixture": flight.fixture, "ticks": result.ticks,
            "rotors": result.rotors, "csv_bytes": result.csv_bytes})
        return result

    def sweep_item(self, i, item):
        tracer, patched = self._traced("main", self.trace)
        label = f"sweep[{i}] {item.recipe}"
        with patched:
            result, built = wl.analyze_text(label, item.text, tracer,
                                            self.sizes.analysis_repeats)
            self.ledger.record(result.problems)
            key = (f"dof{result.dof}-"
                   f"{'applicable' if result.applicable else 'inapplicable'}")
            if not self.rounds:
                self.outcomes[key] = self.outcomes.get(key, 0) + 1
            if built is not None:
                self.samples["analysis_s"].setdefault(i, []).append(result.seconds)
            if item.pitch and built is not None:
                seconds, limit, problems = wl.pitch_limit(label, *built, tracer)
                self.ledger.record(problems)
                if limit is not None:
                    self.samples["pitch_limit_s"].setdefault(i, []).append(seconds)

    # -- anchor items ---------------------------------------------------------

    def prepare_anchors(self):
        """The fixed anchor items, in the order they cycle."""
        texts = {path.stem: path.read_text(encoding="utf-8")
                 for path in sorted(wl.FIXTURES.glob("*.cfg"))}
        self.anchor_items = ([("analysis", item) for item in texts.items()]
                             + [("pitch", None), ("flight", None)])
        self.anchor_flight = wl.Flight("exp1", duration_s=self.sizes.anchor_flight_s,
                                       skip_s=0.0)
        self.exp4 = wl.analyze_text("anchor exp4", texts["exp4"])[1][0]

    def anchors_to_share(self):
        """Run anchor items while they are behind their share of the run."""
        while self.anchor_s < ANCHOR_SHARE * (time.perf_counter() - self.run_start):
            self.run_anchor_item()

    def run_anchor_item(self):
        index = self.anchor_next
        self.anchor_next = (index + 1) % len(self.anchor_items)
        kind, payload = self.anchor_items[index]
        start = time.perf_counter()
        if kind == "flight":
            self.fly(self.anchor_flight, "anchor", self.trace)
        else:
            tracer, patched = self._traced("anchor", self.trace)
            with patched:
                if kind == "analysis":
                    self.anchor_analysis(*payload, tracer)
                else:
                    self.pitch_anchor(tracer)
        self.anchor_done.add(index)
        self.anchor_s += time.perf_counter() - start
        self.calibrator.keep_up("anchor")

    def measure_overhead(self):
        """Median over adjacent untraced/traced pairs of the anchor flight,
        in alternating order, of traced time over untraced time minus one."""
        ratios = []
        for pair in range(self.sizes.overhead_pairs):
            order = (False, True) if pair % 2 == 0 else (True, False)
            seconds = {traced: self.fly(self.anchor_flight, "anchor", traced).sequence_s
                       for traced in order}
            if seconds[False] > 0 and seconds[True] > 0:
                ratios.append(seconds[True] / seconds[False] - 1.0)
        self.props["overhead_pair_ratios"] = ratios
        return statistics.median(ratios) if ratios else None

    def anchor_analysis(self, name, text, tracer):
        label = f"anchor {name}"
        result, built = wl.analyze_text(label, text, tracer,
                                        self.sizes.analysis_repeats)
        expected = wl.ANCHOR_DOF.get(name)
        if expected is not None and result.dof != expected:
            result.problems.append(f"{label}: DOF {result.dof}, expected {expected}")
        self.ledger.record(result.problems)
        if self.sources["analysis"] == "anchor" and built is not None:
            self.samples["analysis_s"].setdefault(name, []).append(result.seconds)

    def pitch_anchor(self, tracer):
        f_max = wl.ANCHOR_PITCH_F_MAX
        seconds, limit, problems = wl.pitch_limit("anchor exp4", self.exp4, f_max,
                                                  tracer)
        if limit is not None:
            expected = wl.closed_form_pitch_limit(self.exp4.mass, f_max)
            self.props["anchor_pitch_limit_deg"] = float(np.degrees(limit))
            if abs(limit - expected) > wl.ANCHOR_PITCH_TOL:
                problems.append(f"anchor exp4: pitch limit {np.degrees(limit):.4f} "
                                f"deg, closed form {np.degrees(expected):.4f} deg")
        self.ledger.record(problems)
        if self.sources["pitch_limit"] == "anchor" and limit is not None:
            self.samples["pitch_limit_s"].setdefault("exp4", []).append(seconds)

    # -- output ---------------------------------------------------------------

    def describe(self):
        self.props["csv_sha256"] = {k: sorted(v) for k, v in self.digests.items()}
        if not self.flying:
            counts = [item.modules for item in self.items]
            self.props.update({
                "structures_per_pass": len(self.items),
                "by_dof_and_applicable": dict(sorted(self.outcomes.items())),
                "module_count_range": [min(counts), max(counts)],
                "pitch_limits_per_pass": sum(item.pitch for item in self.items),
            })

    def layers(self):
        main, anchor = self.tracers["main"], self.tracers["anchor"]
        values, not_measured = layer_metrics(
            [(main.spans, self.traced_flights["main"]),
             (anchor.spans, self.traced_flights["anchor"])],
            {**main.missing, **anchor.missing}, self.overhead)
        spans_path = OUT_DIR / f"spans-{self.workload}.csv"
        offset = len(main.spans)
        main.spans.extend((name, start, end, parent + offset if parent >= 0 else -1)
                          for name, start, end, parent in anchor.spans)
        main.write(spans_path)
        return values, not_measured, str(spans_path.relative_to(ROOT))

    def result(self):
        out = {
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "failures": self.ledger.failures,
            "samples": self.samples,
            "sources": self.sources,
            "calibration": {source: {"units": units, "seconds": seconds}
                            for source, (units, seconds)
                            in self.calibrator.units.items()},
            "props": self.props,
            "peak_rss_mb": self.props["peak_rss_mb_first_round"],
        }
        if self.trace:
            out["layers"], out["not_measured"], out["spans_file"] = self.layers()
        return out


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed, seconds, trace=False, probe=False, sizes=None):
    """Set up, then (unless probing) measure; returns the JSON-ready result."""
    worker = Worker(workload, seed, trace, sizes)
    worker.setup()
    setup_done = time.monotonic()
    if probe:
        return {"setup_done": setup_done}
    worker.run(seconds)
    return {"setup_done": setup_done, **worker.result()}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.probe)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
