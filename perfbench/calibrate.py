"""Wall times scaled by a fixed kernel timed next to them.

On a shared host the same verb call can take up to twice as long for tens
of seconds at a time while the process's CPU time still equals its wall
time, so the slowdown shows only by timing something fixed. ``Clock``
times a fixed numpy-and-Python kernel right after each measured call and
scales the call's wall time by ``NOMINAL_S`` over the mean of the kernel
times before and after it. Times stay in seconds, at the kernel's nominal
speed on the reference machine; the kernel shares no code with survquack.

The kernel is timed in the CPU time of its own thread, so a thread that
the program leaves running cannot stretch it by taking the core; on this
host that follows the slow phases as closely as the kernel's wall time
does. A kernel timed only before and after a call of several seconds
cannot follow the host within the call, so ``Clock(scale=False)`` gives
plain wall times.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.008  # the kernel's time on the reference machine at rest


class Clock:
    """Measures calls in raw and, with ``scale``, in kernel-scaled seconds."""

    def __init__(self, scale=True):
        self.scale = scale
        rng = np.random.default_rng(0)
        self._arrays = [rng.random(1000) for _ in range(16)]
        self._probe = rng.random(1000)
        self._last = self._kernel() if scale else None

    def _kernel(self):
        """Time two passes of small sorts, searches and dict updates, the
        kinds of work a verb call does."""
        t0 = time.thread_time()
        for _ in range(2):
            for a in self._arrays:
                s = a[np.argsort(a, kind="stable")]
                np.unique(s, return_index=True)
                np.cumsum(s)
                np.searchsorted(s, self._probe)
                np.exp(-s).sum()
            counts = {}
            for i in range(3000):
                counts[i % 97] = counts.get(i % 97, 0.0) + i * 0.5
        return time.thread_time() - t0

    def measure(self, fn, *args):
        """Call ``fn(*args)``; returns (result, raw seconds, reported seconds)."""
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        if not self.scale:
            return result, raw, raw
        kernel = self._kernel()
        scaled = raw * NOMINAL_S / (0.5 * (self._last + kernel))
        self._last = kernel
        return result, raw, scaled
