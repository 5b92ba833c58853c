"""Summary statistics and speed calibration shared by the benchmark's scripts."""

from __future__ import annotations

import math
import statistics
import time

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
CAL_REF_S = 0.0004  # calibration-loop time that defines the reference speed


class TooFewSamples(ValueError):
    pass


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``samples``.

    Refuses when fewer than ``MIN_BEYOND`` samples rank above it, since a
    tail value resting on a handful of samples is mostly noise.
    """
    n = len(samples)
    rank = math.ceil(q * n)  # 1-based
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{round(q * 100)} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def calibration_loop() -> None:
    """A fixed slice of interpreter work like the library's own.

    Tuple-keyed dict updates on complex numbers, then a sort: the kind of
    bytecode the operator algebra runs, with no call into ``qrepeat``, so
    its time tracks only how fast the host runs Python right now.
    """
    acc = {}
    for i in range(600):
        k = (i % 37, i % 29)
        acc[k] = acc.get(k, 0j) + complex(i, 1) * 0.5
    sorted(acc)


def time_calibration(clock=time.perf_counter) -> float:
    t = clock()
    calibration_loop()
    return clock() - t


def calibrated(latencies, refs) -> list[float]:
    """Latencies rescaled to the reference speed.

    ``refs`` holds the calibration time measured before each op and after
    the last one, so one more entry than ``latencies``; op ``k`` is scaled
    by ``CAL_REF_S`` over the mean of the two measurements around it.
    """
    return [lat * 2 * CAL_REF_S / (refs[k] + refs[k + 1])
            for k, lat in enumerate(latencies)]


class SetupClock:
    """Set-up time in laps, each calibrated by the loop timed on either side.

    A lap short enough that the host rarely changes speed inside it is
    rescaled the way a timed op is; the calibration loops themselves are
    left out of both sums.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        calibration_loop()  # the interpreter specializes its bytecode on first runs
        self.ref = self._reference()
        self.raw_s = 0.0
        self.setup_s = 0.0
        self.start = clock()

    def _reference(self) -> float:
        return min(time_calibration(self.clock) for _ in range(3))

    def lap(self) -> None:
        lap = self.clock() - self.start
        ref = self._reference()
        self.raw_s += lap
        self.setup_s += lap * 2 * CAL_REF_S / (self.ref + ref)
        self.ref = ref
        self.start = self.clock()
