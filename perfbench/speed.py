"""Correction of timings for the speed of a shared CPU.

On a shared host the same single-threaded Python computation runs up to
twice as long at one moment as at another, in stretches of a few seconds to
a minute.  A daemon thread in the benchmark process runs a fixed pure-Python
reference (small-int arithmetic, a big-int gcd, bytes formatting, sorting, a
small matrix product) every ``PERIOD`` seconds and records the thread CPU
time it took.  The reference does not touch the package, but the work beside
it still moves it a little: interleaving two-second windows of different
package work on one host, the mean reference cost beside small-height
canonical forms read up to 8% below that beside lattice certificates, and a
probe in a separate process showed the same pattern.  That is small next to
the host's own swings, which this correction removes, but a change that
turns a workload's work into a very different kind can move its scaled
times by that much; the raw times are kept in the run's facts for that.

``scaled(t0, t1)`` turns the interval ``[t0, t1]`` of ``time.perf_counter``
into seconds at reference speed: each sample's speed, ``NOMINAL`` over its
cost, holds from its start to the next sample's, and the interval's length is
summed at those speeds.  Summing speeds, not dividing by a mean cost, is the
work done when the host's speed changes inside the interval; on one request
repeated 40 to 150 times it gave 10-20% less scatter.  ``NOMINAL`` is
the reference's cost on a shared 2-vCPU x86-64 VM with Python 3.11 in its fast
stretches, so scaled seconds read as seconds on that machine when nothing
else contends for it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import threading
import time

PERIOD = 0.025
NOMINAL = 0.0007
MIN_SAMPLES = 10
_BIG = 3 ** 6000


def reference():
    """The fixed unit of work whose cost tracks the CPU's current speed."""
    acc = 0
    for i in range(1000):
        acc += (i * 7919) % 104729
    g = math.gcd(_BIG * 3 + acc, _BIG * 5 + 1)
    blob = b",".join(b"%d" % v for v in range(500))
    keys = sorted(((i * 31) % 97, i) for i in range(800))
    m = tuple(tuple(i * j + acc for j in range(12)) for i in range(12))
    prod = tuple(tuple(sum(r[i] * m[i][j] for i in range(12)) for j in range(12)) for r in m)
    return g, len(blob), keys[0], prod[0][0]


class SpeedProbe:
    """Context manager running ``reference`` on a thread; samples are (start, cost)."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self):
        clock, cpu = time.perf_counter, time.thread_time
        while not self._stop.is_set():
            t0, c0 = clock(), cpu()
            reference()
            self.samples.append((t0, cpu() - c0))
            self._stop.wait(PERIOD)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self, t0, t1):
        """Mean reference cost over ``[t0, t1]`` over ``NOMINAL``; above 1 is slower.

        The mean, not the median: a stall that hits a few samples hits the
        benchmark's own work in the same proportion.

        Uses the samples that started inside the interval, or, for an
        interval too short to hold ``MIN_SAMPLES``, the ones nearest its middle.
        """
        inside = [c for s, c in self.samples if t0 <= s <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda x: abs(x[0] - mid))[:MIN_SAMPLES]
            inside = [c for _, c in nearest]
        return statistics.fmean(inside) / NOMINAL

    def scaled(self, t0, t1):
        """Length of ``[t0, t1]`` in seconds at reference speed.

        An interval too short to hold ``MIN_SAMPLES`` samples is divided by
        ``slowdown`` instead, which averages the samples nearest its middle.
        """
        samples = list(self.samples)
        starts = [start for start, _ in samples]
        first, end = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        if end - first < MIN_SAMPLES:
            return (t1 - t0) / self.slowdown(t0, t1)
        total = 0.0
        for i in range(max(first - 1, 0), end):
            lo = max(starts[i], t0)
            hi = min(starts[i + 1], t1) if i + 1 < len(starts) else t1
            total += (hi - lo) * NOMINAL / samples[i][1]
        return total
