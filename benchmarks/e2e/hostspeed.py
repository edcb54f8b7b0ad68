"""Host-load correction for the end-to-end times.

The benchmark runs on a shared machine whose other tenants slow it for
stretches of seconds to minutes, by up to 2x, through contention for the
cores that the guest does not see as CPU steal.  A stretch that lasts a
whole run moves any statistic of that run's repetitions, so the times of
two runs a few minutes apart differ by far more than a code change does.

A :class:`SpeedProbe` measures the machine's speed while the workload
runs.  Every ``INTERVAL_S`` of wall time, ``SIGALRM`` interrupts the
workload between two bytecodes and the handler times a fixed pure-Python
integer loop, after one untimed pass that brings it back into the caches
the workload evicted.  Of the loops tried, this one tracked the
workloads best: a loop of float and dict work slows more than numpy's
array code does, and over-corrected city-1m.

:meth:`SpeedProbe.scale` turns a duration measured in a window into
seconds at the reference speed, the speed at which the loop takes
``REFERENCE_NS``: it removes the handlers' own time and multiplies by
``REFERENCE_NS`` over the loop's mean time in the window.  On the
machine in ``baseline/machine.json``, at its faster speed, the loop
takes about ``REFERENCE_NS`` and the scaled times are wall times.

The workload runs on one thread, so the probe sees the same core and the
same contention.  A program that moved work onto other threads would
also slow the probe, and the correction would hide part of that cost.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
from bisect import bisect_left
from collections.abc import Iterator

#: Wall time between two samples; a sample costs 30-45 us, under 0.5 %.
INTERVAL_S = 0.01
#: The loop's time at the reference speed.
REFERENCE_NS = 14_000.0
#: A window holding fewer samples (a short set-up) borrows the nearest
#: ones, so one sample never sets a window's speed.
MIN_SAMPLES = 16
#: The slowest share of a window's samples (at least one), dropped as
#: ones an interrupt or a page fault landed in.
TRIM = 0.05


def _loop() -> int:
    total = 0
    for i in range(300):
        total += i * i
    return total


class SpeedProbe:
    """Samples of the probe loop's time, taken from ``SIGALRM``."""

    def __init__(self) -> None:
        #: Handler entry, ``perf_counter_ns``.
        self.at: list[int] = []
        #: The timed pass of the loop, ns.
        self.loop_ns: list[int] = []
        #: The whole handler, both passes, ns: time the workload did not get.
        self.cost_ns: list[int] = []

    def _sample(self, signum: int, frame: object) -> None:
        entered = time.perf_counter_ns()
        _loop()
        start = time.perf_counter_ns()
        _loop()
        end = time.perf_counter_ns()
        self.at.append(entered)
        self.loop_ns.append(end - start)
        self.cost_ns.append(end - entered)

    @contextlib.contextmanager
    def running(self) -> Iterator[SpeedProbe]:
        """Sample every ``INTERVAL_S`` inside the ``with`` block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor from a duration measured in ``[start_ns, end_ns)`` of
        ``perf_counter_ns`` to seconds at the reference speed."""
        lo = bisect_left(self.at, start_ns)
        hi = bisect_left(self.at, end_ns)
        own = sum(self.cost_ns[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.at))
        samples = sorted(self.loop_ns[lo:hi])
        kept = samples[: max(1, len(samples) - math.ceil(len(samples) * TRIM))]
        mean = sum(kept) / len(kept)
        busy = 1.0 - own / (end_ns - start_ns)
        return busy * REFERENCE_NS / mean
