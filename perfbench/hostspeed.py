"""Host speed, read from a fixed reference loop sampled all through a run.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-30% over seconds to minutes, for every program alike: a fixed pure-Python
loop timed back to back ranges over more than 1.5x. Averaging within a run
cannot cancel a drift that outlasts the run, so every timing the benchmark
reports is scaled to a nominal host:

    reported = measured * NOMINAL_S / reference

where reference is the mean time of the reference loop sampled during the
timing and just before and after it (HostSpeed). A reported second is a
second of a host on which the loop takes NOMINAL_S.

The loop computes the rank of a fixed sparse integer matrix by fraction-free
elimination over dict rows, the kind of work the package does most (dict
rows, integer arithmetic, many short-lived objects). It calls nothing of the
package and runs with the garbage collector off, so that a change to the
package moves op times and never the reference. Raw wall times are printed
beside the scaled ones.

With a 70-row matrix of this kind, over four minutes of one compute_tate
job and one verify_suite call alternating with probes on a 2-core sandbox,
the 30-s medians of their times spread by 29% and 30% of their median
(distance between quartiles), and by 2% and 6% once scaled. A loop of
modular arithmetic on small slotted objects, with no dicts, tracked worse
(14% and 9%): it speeds up more than the package when the host does.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from math import gcd

NOMINAL_S = 0.006       # reference-loop seconds of the nominal host
SIZE = 60               # matrix side: about NOMINAL_S on a 2-core x86 sandbox
INTERVAL = 0.2          # seconds between two samples
WINDOW = 0.5            # an op is scaled by the samples this close to it


def _matrix(n=SIZE, per_row=4, seed=7):
    rng = random.Random(seed)
    return [{rng.randrange(n): rng.choice((-1, 1)) * rng.randrange(1, 10)
             for _ in range(per_row)} for _ in range(n)]


_ROWS = _matrix()


def reference_loop(rows=_ROWS):
    """Rank over Q of the fixed matrix."""
    work = [dict(r) for r in rows]
    rank = 0
    for col in range(SIZE):
        pidx = next((i for i, row in enumerate(work) if row.get(col)), None)
        if pidx is None:
            continue
        prow = work.pop(pidx)
        pval = prow[col]
        rank += 1
        nxt = []
        for row in work:
            v = row.get(col)
            if not v:
                nxt.append(row)
                continue
            g = gcd(v, pval)
            merged = {j: w * (pval // g) for j, w in row.items()}
            for j, w in prow.items():
                x = merged.get(j, 0) - w * (v // g)
                if x:
                    merged[j] = x
                else:
                    merged.pop(j, None)
            if merged:
                g = 0
                for w in merged.values():
                    g = gcd(g, w)
                    if g == 1:
                        break
                if g > 1:
                    merged = {j: w // g for j, w in merged.items()}
                nxt.append(merged)
        work = nxt
    return rank


def reference_seconds(reps: int = 1) -> float:
    """Median seconds of `reps` reference loops, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class HostSpeed:
    """Times of the reference loop, sampled every INTERVAL seconds of wall
    time while the context is entered, whatever the process is doing then.

    A timer signal runs each sample between two bytecodes of the main
    thread, so a sample lies wholly inside or wholly outside any interval
    the main thread reads the clock at; op_seconds() takes the samples that
    fell inside an op out of its time. Sampling during ops, rather than only
    between them, follows drift on the scale of one op: on a 2-core sandbox
    it cut the spread of a 2-s job's scaled times from 12% to 8% of their
    median. Sampling costs about 3% of the run."""

    def __init__(self):
        self.ends = []          # clock at the end of each sample, ascending
        self.samples = []       # seconds of each sample
        self._sampling = False
        self._previous = None

    def _sample(self, signum=None, frame=None):
        if self._sampling:      # a slow sample outlasted the interval
            return
        self._sampling = True
        try:
            self.samples.append(reference_seconds())
            self.ends.append(time.perf_counter())
        finally:
            self._sampling = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def op_seconds(self, t0: float, t1: float) -> float:
        """Wall seconds from t0 to t1 less the samples taken between."""
        lo, hi = bisect_left(self.ends, t0), bisect_right(self.ends, t1)
        return t1 - t0 - sum(self.samples[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean sample within WINDOW seconds of the
        interval [t0, t1]; call it once the context has been left."""
        lo = bisect_left(self.ends, t0 - WINDOW)
        hi = bisect_right(self.ends, t1 + WINDOW)
        return NOMINAL_S / statistics.fmean(self.samples[lo:hi])
