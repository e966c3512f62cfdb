"""Pair-query uniformity tester.

Compares a few uniformly chosen reference points against points drawn
from the distribution (and against fresh uniform points) over
geometrically growing stages. Under uniformity every comparison
concentrates at hit fraction 1/2; any deviation beyond the stage
window rejects.

The query schedule is oblivious: the same number of oracle queries is
issued on every run with the same parameters, so the ledger total is a
deterministic function of epsilon alone. Comparisons that cannot be
performed (identical endpoints, zero-mass pairs) burn the same budget;
zero-mass pairs also count as rejection evidence, since they cannot
occur under the uniform distribution.
"""

from __future__ import annotations

import math

from .distcore import QuerySet
from .errors import ZeroMassSet
from .oracles import OracleHandle
from .profiles import DESK
from .subroutines import compare_budget, compare_points


ACCEPT = "Accept"
REJECT = "Reject"


def schedule(eps: float, profile=DESK):
    """Per-stage (s_j, eta_j, delta_j, window_j, m_j) for j = 1..t."""
    eps = 2.0 ** math.floor(math.log2(eps))  # largest power of 1/2 <= eps
    t = int(round(math.log2(4.0 / eps))) + 1
    delta = min(math.exp(-profile["unif_delta_c"] * t), 0.5)
    stages = []
    for j in range(1, t + 1):
        s_j = math.ceil(profile["unif_s_c"] * 2.0**j * t)
        window = min(2.0 ** (j - 5) * eps / 4.0, 1.0)
        eta_j = window
        m_j = compare_budget(eta_j, 2.0, delta, profile)
        stages.append((s_j, eta_j, delta, window, m_j))
    return stages


def query_budget(eps: float, profile=DESK) -> int:
    """Exact total query count of a run; independent of N."""
    q = profile["unif_q"]
    return sum(s_j + q * 2 * s_j * m_j for s_j, _, _, _, m_j in schedule(eps, profile))


def pcond_test_uniform(h: OracleHandle, eps: float, profile=DESK) -> str:
    n = h.dist.n
    if n == 1:
        return ACCEPT
    q = profile["unif_q"]
    refs = h.rng.integers(1, n + 1, size=q)
    full = QuerySet.full()
    reject = False
    for s_j, eta_j, delta_j, window, m_j in schedule(eps, profile):
        drawn = h.draw_many(full, s_j)
        fresh = h.rng.integers(1, n + 1, size=s_j)
        for x in refs:
            x = int(x)
            for batch in (drawn, fresh):
                for y in batch:
                    y = int(y)
                    if x == y:
                        # Exact ratio 1: inside every window. Burn the
                        # comparison budget to keep the schedule oblivious.
                        h.burn(full, m_j)
                        continue
                    try:
                        out = compare_points(h, x, y, eta_j, 2.0, delta_j, profile)
                    except ZeroMassSet:
                        # Impossible under uniformity: certain rejection.
                        reject = True
                        h.burn(full, m_j)
                        continue
                    if abs(out.hit_fraction() - 0.5) > window:
                        reject = True
    return REJECT if reject else ACCEPT
