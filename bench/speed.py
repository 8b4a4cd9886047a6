"""Host speed as seen by the benchmark's own thread.

The shared host runs this thread at two speed levels about 1.9x apart,
switching within a second or staying on one level for a whole run; CPU time
moves with wall time, so the slowdown is not time stolen from the thread but
a slower core.  ``calibrate`` is a fixed piece of pure-Python integer work
(the interpreter loop, small-int arithmetic and calls that Fraction
arithmetic spends its time in).  Timing it next to and during a job tells
how fast the core ran the job, so a job's latency can be scaled to one
reference host speed.

This module imports only ``signal`` and ``time``, so that the import probe
of ``setup_s`` can use it without importing anything moebius_dual imports
(``statistics``, for one, would import ``fractions``).
"""

import signal
import time


def calibrate():
    """Euclid's algorithm on a fixed set of pairs; about 0.25 ms on the fast
    level of a 2-vCPU VM with Python 3.11."""
    acc = 0
    for i in range(1, 480):
        a, b = i * 7919 + 1, i * 104729 + 3
        while b:
            a, b = b, a % b
        acc += a
    return acc


def calibration_ns(times=1):
    """Mean duration of ``times`` calibration loops, in ns."""
    t0 = time.perf_counter_ns()
    for _ in range(times):
        calibrate()
    return (time.perf_counter_ns() - t0) / times


class Speedometer:
    """Samples the calibration loop at the start and the end of each job and
    every ``period_s`` during it, from a SIGALRM handler in the job's own
    thread.  ``stop`` returns the time the handler took within the job, which
    the caller takes out of the job's latency; ``mean_ns`` is then the mean
    calibration time over the job."""

    def __init__(self, period_s):
        self.period_s = period_s
        self.samples = []
        self.ticks = []  # (start, duration) of each handler call, in ns
        # the first calls of the loop run before the interpreter has
        # specialised its bytecode and take up to three times as long
        calibration_ns(50)
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.samples.append(calibration_ns())
        self.ticks.append((t0, time.perf_counter_ns() - t0))

    def start(self):
        self.samples = [calibration_ns()]
        self.ticks = []
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self, end_ns):
        """Disarm; the handler time of the ticks that began before ``end_ns``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(calibration_ns())
        return sum(d for t, d in self.ticks if t < end_ns)

    @property
    def mean_ns(self):
        """Mean over the samples, leaving out those more than twice the
        median: a sample is that long only when the thread lost the core
        during it (one 4 ms scheduler tick), which says nothing of speed."""
        cap = 2 * sorted(self.samples)[len(self.samples) // 2]
        kept = [s for s in self.samples if s <= cap]
        return sum(kept) / len(kept)
