"""Machine-speed calibration for the benchmark's timings.

On shared CPUs the same Python and numpy work runs up to about 1.6
times slower for tens of seconds at a time, longer than one benchmark
run. The worker runs this fixed kernel between trials; `factor()` says
how much slower than nominal the machine runs right now, and a timing
divided by it is a time at reference speed: what the work takes when
the kernel takes NOMINAL_MS. The kernel is the benchmark's own code,
so no change to condtest moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel time, in ms, on an unloaded 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4).
NOMINAL_MS = 5.8


class Kernel:
    """A fixed mix of the simulator's kinds of work: scalar RNG draws,
    small-array set operations and searches, small dicts, and a sort."""

    def __init__(self):
        self._rng = np.random.Generator(np.random.PCG64(0))
        self._a = np.arange(1, 65, dtype=np.int64)
        self.factor()  # the first run pays one-time costs

    def factor(self):
        """Current slowdown against nominal speed (1.0 = nominal)."""
        a, rng = self._a, self._rng
        t0 = perf_counter()
        acc = 0
        for i in range(200):
            acc += int(rng.binomial(1000, 0.3))
            acc += np.intersect1d(a, a + i).size
            acc += int(np.searchsorted(a, i))
            acc += len({j: j for j in range(8)})
        rng.random(1 << 15).sort()
        return (perf_counter() - t0) * 1000.0 / NOMINAL_MS
