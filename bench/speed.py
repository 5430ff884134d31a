"""The machine's speed, sampled while the timed work runs.

On a shared host the speed of this process can change by half within
seconds as other tenants load the machine, and a calibration run before
or after the timed work misses most of that.  So a timer signal
interrupts the timed work every PERIOD_S seconds and times a fixed
micro loop; the median of those samples is the speed the work ran at.
A time t is reported at the reference speed as t * REFERENCE_S / median,
after the probe's own time has been taken out of t.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02
LOOP_ITERATIONS = 3000
# The micro loop's median on a 2.1 GHz Xeon (Sapphire Rapids) VM with
# CPython 3.11, so reported seconds are close to raw seconds there.
REFERENCE_S = 0.0002


def micro_loop():
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc + i * i) % 7919
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that samples the speed on SIGALRM while it is open.

    samples holds the micro loop's durations; spent, the seconds the
    probe took in all, to be subtracted from the work it interrupted.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def take(self, *_):
        start = time.perf_counter()
        self.samples.append(micro_loop())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, since=0):
        """Factor from raw seconds to reference seconds, over samples[since:]."""
        return REFERENCE_S / statistics.median(self.samples[since:])
