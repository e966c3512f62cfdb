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
from typing import NamedTuple

import numpy as np

from .distcore import QuerySet
from .errors import check_eps
from .oracles import OracleHandle
from .profiles import DESK
from .subroutines import classify, compare_budget
from .uniformity import ACCEPT, REJECT


class Schedule(NamedTuple):
    """icond_test_uniform's numbers."""
    t: int             # points walked
    eta: float         # each level's split held to the factor 1 +- eta
    m: int             # draws per level
    bounds: tuple      # (lo, hi) on a walk's value


def schedule(n, eps, profile=DESK) -> Schedule:
    """The numbers for n points. One point, which the tester accepts
    without a draw, takes log2 n as 1, as two points do."""
    check_eps(eps)
    log_n = max(math.log2(n), 1.0)
    eta = eps / (48.0 * log_n)
    m = compare_budget(eta, 2.0, eps / (100.0 * (1.0 + log_n)), profile)
    return Schedule(math.ceil(profile["icond_t_c"] / eps), eta, m,
                    ((1.0 - eps / 12.0) / n, (1.0 + eps / 12.0) / n))


def _walks(n, ys):
    """The walks above the points ys: a and b, (k, depth + 1) arrays
    whose row i holds walk i's interval [a, b] at each level, from [1, n]
    to [y, y], which fills the rest of the row; a level's half that
    holds y is the next level's interval. A walk splits at
    c = (a + b) // 2 until its interval's size is a power of two; t
    levels below that, it is the block of size / 2^t points holding y,
    aligned to that interval's start.
    """
    heads, tops = [], []
    # Over 1..2^j every walk starts on a power of two.
    for y in ys.tolist() if n & (n - 1) else ():
        a, b, steps = 1, n, len(heads)
        while (b - a) & (b - a + 1):
            heads.append((a, b))
            c = (a + b) // 2
            a, b = (a, c) if y <= c else (c + 1, b)
        tops.append((len(heads) - steps, a, b - a + 1))
    steps, top, size = np.array(tops).T[:, :, None] if tops else (0, 1, n)
    level = np.arange((n - 1).bit_length() + 1)
    block = np.maximum(size >> np.maximum(level - steps, 0), 1)
    a = ys[:, None] - (ys[:, None] - top) % block
    b = a + block - 1
    if heads:
        above = level < steps
        a[above], b[above] = np.array(heads).T
    return a, b


def binary_descent(h: OracleHandle, ys, eta: float, m: int, bounds=None):
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
    a, b = _walks(n, ys)
    # A walk's levels, a prefix of its row, walk after walk.
    walking = a[:, :-1] < b[:, :-1]
    lengths = np.count_nonzero(walking, axis=1)
    ends = np.cumsum(lengths)
    lo, hi, sub_lo, sub_hi = (v[walking] for v in (a[:, :-1], b[:, :-1], a[:, 1:], b[:, 1:]))
    # The uniform split: the half's size over the other half's.
    half = sub_hi - sub_lo + 1
    rho_star = half / (hi - lo + 1 - half)
    values = None

    def walked(hits):
        """Levels walked before the stop."""
        nonlocal values
        _, _, rho = classify(hits, m, 2.0)
        # NaN, from a Low or High outcome or a zero-mass level, fails.
        passed = ((1.0 - eta) * rho_star <= rho) & (rho <= (1.0 + eta) * rho_star)
        # Level after level, as the walk multiplies them.
        values = np.multiply.reduceat(rho / (1.0 + rho), ends - lengths)
        if bounds is not None:
            # A walk that ends out of bounds fails at its last level.
            passed[ends - 1] &= (bounds[0] <= values) & (values <= bounds[1])
        if passed.all():
            return hits.size
        values = None
        return int(np.argmin(passed)) + 1

    h.draw_interval_counts(lo, hi, sub_lo, sub_hi, m, reached=walked)
    return values


def icond_test_uniform(h: OracleHandle, eps: float, profile=DESK) -> str:
    n = h.dist.n
    t, eta, m, bounds = schedule(n, eps, profile)
    if n == 1:
        return ACCEPT
    pts = h.draw_many(QuerySet.full(), t)
    # The first walk alone, then the other t - 1 in one call. On U(2^16)
    # (numpy 2.4, one x86-64 core) a call costs about 80 us with one walk
    # and 135 us with 39. A far instance mostly fails its first walk and
    # pays one small call; a run that passes makes two.
    for part in (pts[:1], pts[1:]):
        if binary_descent(h, part, eta, m, bounds) is None:
            return REJECT
    return ACCEPT
