"""Pair-query uniformity tester.

Compares a few uniformly chosen reference points against points drawn
from the distribution (and against fresh uniform points) over
geometrically growing stages. Under uniformity every comparison
concentrates at hit fraction 1/2; any deviation beyond the stage
window rejects.

The query schedule is oblivious: the same number of oracle queries is
issued on every run with the same parameters, so the ledger total is a
deterministic function of epsilon alone: schedule(eps, profile) names
every number a run uses, and query_budget sums it. Comparisons that
cannot be performed (identical endpoints, zero-mass pairs) burn the
same budget; zero-mass pairs also count as rejection evidence, since
they cannot occur under the uniform distribution.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .distcore import QuerySet
from .errors import check_eps
from .oracles import OracleHandle
from .profiles import DESK
from .subroutines import classify, compare_budget


ACCEPT = "Accept"
REJECT = "Reject"


class Schedule(NamedTuple):
    """pcond_test_uniform's numbers. Stage j = 1..t draws s_j points,
    compares each pair from m_j draws, and rejects a hit fraction off
    1/2 by more than window_j."""
    q: int             # reference points
    stages: tuple      # (s_j, window_j, m_j) per stage


def schedule(eps: float, profile=DESK) -> Schedule:
    check_eps(eps)
    eps = 2.0 ** math.floor(math.log2(eps))  # largest power of 1/2 <= eps
    t = int(round(math.log2(4.0 / eps))) + 1
    delta = min(math.exp(-profile["unif_delta_c"] * t), 0.5)
    stages = []
    for j in range(1, t + 1):
        s_j = math.ceil(profile["unif_s_c"] * 2.0**j * t)
        window = min(2.0 ** (j - 5) * eps / 4.0, 1.0)
        stages.append((s_j, window, compare_budget(window, 2.0, delta, profile)))
    return Schedule(profile["unif_q"], tuple(stages))


def query_budget(eps: float, profile=DESK) -> int:
    """Exact total query count of a run; independent of N."""
    q, stages = schedule(eps, profile)
    return sum(s_j + q * 2 * s_j * m_j for s_j, _, m_j in stages)


def pcond_test_uniform(h: OracleHandle, eps: float, profile=DESK) -> str:
    q, stages = schedule(eps, profile)
    n = h.dist.n
    if n == 1:
        return ACCEPT
    refs = h.rng.integers(1, n + 1, size=q)
    full = QuerySet.full()
    reject = False
    for s_j, window, m_j in stages:
        drawn = h.draw_many(full, s_j)
        fresh = h.rng.integers(1, n + 1, size=s_j)
        # Each reference point against the drawn, then the fresh points,
        # in one batched call that draws in the order of that loop.
        x = np.repeat(refs, 2 * s_j)
        y = np.concatenate((drawn, fresh) * q)
        distinct = x != y
        x, y = x[distinct], y[distinct]
        hits = h.draw_pair_counts(x, y, m_j)
        live = hits >= 0
        # x == y has ratio exactly 1, inside every window; a zero-mass
        # pair is impossible under uniformity: certain rejection. Both
        # burn the comparison budget to keep the schedule oblivious.
        h.burn(full, m_j * (q * 2 * s_j - int(np.count_nonzero(live))))
        low, high, rho = classify(hits[live], m_j, 2.0)
        # A Low or High outcome is the hit fraction 0 or 1, off 1/2 by
        # 1/2; its NaN rho fails every comparison below.
        off = np.abs(rho / (1.0 + rho) - 0.5) > window
        if not live.all() or off.any() or (window < 0.5 and (low | high).any()):
            reject = True
    return REJECT if reject else ACCEPT
