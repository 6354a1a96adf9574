"""The speed of the host, from a fixed loop timed around and during the work.

The shared 2-vCPU host the benchmark was written on switches between a fast
and a slow state, for well under a second up to minutes at a time; in the
slow one homfly3 runs up to about 1.7 times slower.  ``reference_loop`` is
fixed pure-Python work that shares no code with homfly3 and slows with it,
so a time measured next to it is brought to the reference speed by
multiplying it by REF_SECONDS over the loop's median time then.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_SECONDS = 0.0003  # reference_loop() on the 2-vCPU Xeon host, fast state
REF_LOOPS = 5  # loops timed in one go between two timed pieces of work
SAMPLE_PERIOD = 0.01  # seconds between two loops timed during the work


def reference_loop():
    """Integer arithmetic and dict stores, about 0.3 ms."""
    table = {}
    x = 0
    for i in range(2000):
        x = (x * 31 + i) % 1000003
        table[x & 1023] = x
    return x


def time_reference(loops=REF_LOOPS):
    """Times of ``loops`` back-to-back runs of reference_loop."""
    times = []
    for _ in range(loops):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return times


def to_reference(refs):
    """Factor from measured seconds to seconds at the reference speed."""
    return REF_SECONDS / statistics.median(refs)


class HostSampler:
    """Times reference_loop from a SIGALRM handler every SAMPLE_PERIOD
    seconds inside a ``with`` block, so that the scale factor of long work
    follows the host's speed during it.  ``ticks`` holds (start, duration)
    of each run of the handler; the caller takes their time out of the
    work's."""

    def __init__(self):
        self.ticks = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.ticks.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self.ticks = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
