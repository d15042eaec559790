"""Machine-speed calibration for the end-to-end timings.

The shared VM the benchmark runs on changes speed by up to half, in spells
from a few seconds to minutes (README.md, "Machine noise"). A fixed unit of
work that never touches modquad is therefore timed all through the run,
interleaved with the workload's own steps: between operations, between the
steps of a flight, and between control ticks. Each source's end-to-end
times are then scaled by

    REFERENCE_UNIT_S * units run / seconds the units took

taken over the calibration units that ran among that source's steps, so a
time reads as it would at the reference speed. A faster or slower program
moves the scaled time in full; a faster or slower machine cancels out.
Time spent in calibration units is taken out of every timing it falls in.
Set-up, which runs before the units start, is scaled by the run's overall
factor.
"""

import time

import numpy as np

# Median time of one unit on the VM the bounds were measured on (2 shared
# vCPUs, Python 3.11.7, numpy 2.4.6), so scaled times read close to that
# machine's wall times.
REFERENCE_UNIT_S = 0.01
# Share of the run's wall time that calibration units take.
SHARE = 0.15
_STEPS = 220


def unit():
    """A fixed mix like the program's: small numpy arrays, Python floats,
    and float text formatted and parsed back."""
    rotation = np.eye(3)
    vector = np.array([0.1, -0.2, 0.3])
    total = 0.0
    for step in range(_STEPS):
        w = 1e-3 * np.cross(vector, rotation[:, 2])
        skew = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        rotation = rotation @ (np.eye(3) + skew)
        total += float(np.linalg.norm(w)) + float(vector @ w)
        total += float(",".join(repr(float(x)) for x in rotation[0]).split(",")[step % 3])
    return total


class Calibrator:
    """Runs units while they are behind `share` of the wall time since the
    calibrator was made, and books them to the source named."""

    def __init__(self, share=SHARE):
        self.share = share
        self.started = time.perf_counter()
        self.spent_s = 0.0
        self.units = {}

    def keep_up(self, source):
        while self.spent_s < self.share * (time.perf_counter() - self.started):
            start = time.perf_counter()
            unit()
            took = time.perf_counter() - start
            self.spent_s += took
            booked = self.units.setdefault(source, [0, 0.0])
            booked[0] += 1
            booked[1] += took

    def paced(self, source, fn):
        """`fn` that first lets calibration catch up; for per-tick callables."""
        keep_up = self.keep_up

        def call(*args, **kwargs):
            keep_up(source)
            return fn(*args, **kwargs)

        return call


NO_CALIBRATION = Calibrator(share=0.0)
