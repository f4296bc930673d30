"""The host's speed, sampled beside the program so timings can be scaled
to one reference speed.

The benchmark's host shares its cores with other tenants. Its speed
moves by up to a factor of two, at times several times a second, and
the program's own CPU time moves with it. While a `Sampler` is open, a
timer signal runs a probe of fixed work every INTERVAL_S in the main
thread, between two bytecodes of whatever runs: numpy calls on arrays of
the size the kernels use (projecting 14 joints into 5 cameras, the SVD
of a 10x4 system). A stretch of time is then reported with the probes'
own time taken out, each piece of it between two probes scaled by
NOMINAL_S over the mean of the probes nearest it: what it would read at
the speed at which the probe takes NOMINAL_S. The probe uses none of `mvtrack3d`, so a change
to the program does not move it.

In a calibration on `steady` (a probe after every 25 frames, medians
over blocks of 900 frames), block medians that moved by 18% (quartile
distance over median) moved by 2.7% once scaled. A pure-Python probe (a
min-search over lists, like the Hungarian solver's inner loop) tracked
the program less well, at 6%, and mixing the two did not help.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# The probe's time at the reference speed: its median over the faster
# of the host's two speeds (2-vCPU Xeon, numpy 2.4.6, Python 3.11.7).
NOMINAL_S = 0.22e-3
REPEATS = 5
INTERVAL_S = 0.05
# A piece between two probes is scaled by the mean of this many probes on
# either side of it: one probe reads a steady host to about 10%.
WINDOW = 2

_rng = np.random.default_rng(0)
_PROJ = _rng.random((5, 3, 4))
_POINTS = np.vstack([_rng.random((3, 14)), np.ones((1, 14))])
_SYSTEM = _rng.random((10, 4))


def _work() -> float:
    acc = 0.0
    for _ in range(8):
        image = np.einsum("cij,jn->cin", _PROJ, _POINTS)
        uv = image[:, :2] / image[:, 2:3]
        acc += float(np.linalg.norm(uv, axis=1).sum())
        acc += float(np.linalg.svd(_SYSTEM)[2][-1, -1])
    return acc


def probe() -> float:
    """Median wall time of REPEATS runs of the fixed work, in seconds.
    The cyclic collector is held off meanwhile: a collection the program
    is due would otherwise land in the probe and read as a slow host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _work()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Sampler:
    """Probes the host's speed every INTERVAL_S while open, and once on
    entry and once on exit. Not reentrant; one at a time per process."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probes: list[float] = []
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def timed(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds, seconds at the reference speed) of the stretch from
        t0 to t1 of perf_counter, without the probes run inside it.

        The probes cut the stretch into pieces; each piece is scaled by
        the mean of the WINDOW probes on either side of it, so a stretch
        over which the speed changed is scaled piece by piece."""
        i = bisect_left(self.ends, t0)
        j = bisect_right(self.starts, t1)
        wall = ref = 0.0
        a = t0
        for k in range(i, j + 1):
            b = min(t1, self.starts[k]) if k < j else t1
            if b > a:
                around = self.probes[max(0, k - WINDOW):k + WINDOW]
                wall += b - a
                ref += (b - a) * NOMINAL_S / statistics.fmean(around)
            if k < j:
                a = max(a, self.ends[k])
        return wall, ref
