"""Interval-query uniformity testing.

binary_descent estimates the mass of single points using only
interval conditioning: for each point it walks a binary search tree
over [1, N], comparing the two halves of the current interval at each
level, and multiplies the per-level conditional estimates together.
Each level also checks that the halves split the way a uniform
distribution would; a violation aborts the walks.
"""

from __future__ import annotations

import math

import numpy as np

from .distcore import QuerySet
from .oracles import OracleHandle
from .profiles import DESK
from .subroutines import classify, compare_budget
from .uniformity import ACCEPT, REJECT


def descent_tolerances(n, eps):
    """(eta, delta) used by every level of the walk."""
    log_n = math.log2(n)
    return eps / (48.0 * log_n), eps / (100.0 * (1.0 + log_n))


def _walks(n, ys):
    """The walks above the points ys, level by level: the array of rows
    (a, b, lo, hi), walk after walk, one per level, with the level's
    interval [a, b] and its half [lo, hi] that holds y; and the number
    of levels of each walk."""
    flat, lengths = [], []
    for y in ys.tolist():
        a, b = 1, n
        start = len(flat)
        while a < b:
            c = (a + b) // 2
            if y <= c:
                flat += (a, b, a, c)
                b = c
            else:
                flat += (a, b, c + 1, b)
                a = c + 1
        lengths.append((len(flat) - start) // 4)
    return np.array(flat, dtype=np.int64).reshape(-1, 4), np.array(lengths)


def binary_descent(h: OracleHandle, ys, eps: float, profile=DESK, bounds=None):
    """Estimate D(y) for each point y of ys, walking the points in order.

    Each level of a walk estimates D(half)/D(other half) with
    classify, from m draws on the level's interval, and multiplies the
    estimate of D(half)/D(interval) into the walk's value. Returns the
    values, or None once a walk reaches a level whose estimate is not a
    ratio within the factor 1 +- eta of the uniform split, or whose
    interval has zero mass, or, given bounds = (lo, hi), once a walk
    ends on a value outside [lo, hi].

    Every level of every walk is drawn in one batched call. The oracle
    is charged only for the levels up to the one where the walks stop,
    and its generator ends where a level-by-level walk leaves it.
    """
    n = h.dist.n
    ys = np.asarray(ys, dtype=np.int64)
    if n == 1 or ys.size == 0:
        return np.ones(ys.size)
    eta, delta = descent_tolerances(n, eps)
    m = compare_budget(eta, 2.0, delta, profile)
    rows, lengths = _walks(n, ys)
    a, b, lo, hi = rows.T
    half = (b - a + 1) / 2.0
    up, down = np.ceil(half), np.floor(half)
    rho_star = np.where(lo == a, up / down, down / up)
    # Row i marks the levels of walk i, a prefix of the row.
    active = np.arange(lengths.max()) < lengths[:, None]
    starts = np.cumsum(lengths) - lengths
    values = None

    def walked(hits):
        """Levels walked before the stop."""
        nonlocal values
        _, _, rho = classify(hits, m, 2.0)
        # NaN, from a Low or High outcome or a zero-mass level, fails.
        passed = np.ones(active.shape, dtype=bool)
        passed[active] = ((1.0 - eta) * rho_star <= rho) & (rho <= (1.0 + eta) * rho_star)
        fractions = np.ones(active.shape)
        fractions[active] = rho / (1.0 + rho)
        # Level after level, as the walk multiplies them.
        values = np.multiply.accumulate(fractions, axis=1)[:, -1]
        ok = passed.all(axis=1)
        if bounds is not None:
            ok &= (bounds[0] <= values) & (values <= bounds[1])
        if ok.all():
            return hits.size
        values = None
        i = int(np.argmin(ok))
        if passed[i].all():
            return int(starts[i] + lengths[i])
        return int(starts[i] + np.argmin(passed[i]) + 1)

    h.draw_interval_counts(a, b, lo, hi, m, reached=walked)
    return values


def icond_test_uniform(h: OracleHandle, eps: float, profile=DESK) -> str:
    n = h.dist.n
    if n == 1:
        return ACCEPT
    t = math.ceil(profile["icond_t_c"] / eps)
    pts = h.draw_many(QuerySet.full(), t)
    bounds = ((1.0 - eps / 12.0) / n, (1.0 + eps / 12.0) / n)
    # Walks in batches of doubling size: a run that passes makes about
    # log2(t) batched calls, and one that stops early draws at most
    # twice the walks a walk-by-walk run would have reached.
    start, size = 0, 1
    while start < t:
        if binary_descent(h, pts[start:start + size], eps, profile, bounds) is None:
            return REJECT
        start += size
        size *= 2
    return ACCEPT
