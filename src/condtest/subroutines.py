"""Shared estimation subroutines used by every tester.

compare estimates the mass ratio of two disjoint sets from conditional
draws on their union. estimate_neighborhood estimates the mass of the
weight-neighborhood of a point at a randomized radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distcore import EXPLICIT, FULL, INTERVAL, QuerySet
from .errors import SetsNotDisjoint
from .oracles import OracleHandle
from .profiles import DESK


LOW = "low"
HIGH = "high"
RATIO = "ratio"

_CONTIGUOUS = (FULL, INTERVAL)


@dataclass(frozen=True)
class CompareOutcome:
    tag: str
    rho: float = None

    @property
    def is_low(self):
        return self.tag == LOW

    @property
    def is_high(self):
        return self.tag == HIGH

    @property
    def is_ratio(self):
        return self.tag == RATIO


@dataclass(frozen=True)
class NeighborhoodEstimate:
    w_hat: float
    alpha: float
    theta: float


def compare_budget(eta, K, delta, profile=DESK) -> int:
    m = math.ceil(profile["compare_c"] * K * math.log(2.0 / delta) / eta**2)
    return int(min(m, profile["compare_max_draws"]))


def _saturation(K):
    """The hit (or miss) fraction below which compare answers Low (or
    High) instead of a ratio."""
    return (2.0 / 3.0) / (K + 1.0)


def classify(hits, m, K):
    """compare's outcome for each count in the array hits of m draws:
    (low, high, rho), the masks of the Low and High outcomes and the
    ratio estimate mu/(1-mu), NaN where the outcome is Low or High.

    Takes the thresholds and float operations of compare, so each
    element matches the scalar outcome exactly.
    """
    if m <= 2**53:
        mu = hits / m
    else:
        # Above 2^53 a float64 holds neither m nor every count exactly;
        # Python's int division rounds the exact quotient once.
        mu = np.array([k / m for k in hits.tolist()])
    thr = _saturation(K)
    low = mu < thr
    high = ~low & (1.0 - mu < thr)
    rho = np.divide(mu, 1.0 - mu, out=np.full(mu.shape, np.nan),
                    where=~(low | high))
    return low, high, rho


def _bounds(s: QuerySet, n):
    """Smallest and largest member of s."""
    if s.shape == FULL:
        return 1, n
    if s.shape == EXPLICIT:
        return int(s.indices[0]), int(s.indices[-1])
    return s.a, s.b


def _points(s: QuerySet):
    """Sorted members of a pair or explicit set."""
    return s.indices if s.shape == EXPLICIT else np.array([s.a, s.b])


def _misses_range(points, lo, hi) -> bool:
    """Whether no element of the sorted array points lies in [lo, hi]."""
    return np.searchsorted(points, lo, side="left") == np.searchsorted(
        points, hi, side="right")


def _disjoint(x: QuerySet, y: QuerySet, n) -> bool:
    """Whether x and y share no point, decided from their shapes.

    O(1) when the bounds do not overlap or both sets are contiguous
    (full or interval); O(log) for a pair or explicit set against a
    contiguous one; O(s log l) for two explicit sets of sizes s <= l.
    """
    xlo, xhi = _bounds(x, n)
    ylo, yhi = _bounds(y, n)
    if xhi < ylo or yhi < xlo:
        return True
    if x.shape in _CONTIGUOUS and y.shape in _CONTIGUOUS:
        return False
    if y.shape in _CONTIGUOUS:
        return _misses_range(_points(x), ylo, yhi)
    if x.shape in _CONTIGUOUS:
        return _misses_range(_points(y), xlo, xhi)
    small, large = _points(x), _points(y)
    if small.size > large.size:
        small, large = large, small
    pos = np.minimum(np.searchsorted(large, small), large.size - 1)
    return not np.any(large[pos] == small)


def _union_set(x: QuerySet, y: QuerySet, n) -> QuerySet:
    """x union y for disjoint x and y: an interval when both are
    adjacent intervals, a pair when both are single points, otherwise
    an explicit set (the only case that builds member arrays)."""
    if x.shape == INTERVAL and y.shape == INTERVAL:
        if x.b + 1 == y.a:
            return QuerySet.interval(x.a, y.b)
        if y.b + 1 == x.a:
            return QuerySet.interval(y.a, x.b)
    if x.size(n) == 1 and y.size(n) == 1:
        return QuerySet.pair(_bounds(x, n)[0], _bounds(y, n)[0])
    merged = np.concatenate((x.members(n), y.members(n)))
    merged.sort()
    return QuerySet.explicit(merged)


def compare(
    h: OracleHandle,
    x: QuerySet,
    y: QuerySet,
    eta: float,
    K: float,
    delta: float,
    profile=DESK,
) -> CompareOutcome:
    """Estimate D(Y)/D(X) from conditional draws on X union Y.

    Returns Low when the hit fraction for Y is below (2/3)/(K+1), High
    when the miss fraction is, and otherwise the ratio estimate
    mu/(1-mu). The draw budget is ceil(compare_c*K*ln(2/delta)/eta^2).

    Cost does not grow with N: disjointness is decided from the set
    shapes and one binomial draw stands for all m draws. A union that
    is neither two adjacent intervals nor two single points is built
    as an explicit set, in time linear in the sizes of x and y.
    """
    n = h.dist.n
    if not _disjoint(x, y, n):
        raise SetsNotDisjoint("compare needs disjoint sets")
    union = _union_set(x, y, n)
    m = compare_budget(eta, K, delta, profile)
    hits = h.draw_subset_count(union, y, m)
    mu = hits / m
    thr = _saturation(K)
    if mu < thr:
        return CompareOutcome(LOW)
    if 1.0 - mu < thr:
        return CompareOutcome(HIGH)
    return CompareOutcome(RATIO, mu / (1.0 - mu))


def compare_points(h, px, py, eta, K, delta, profile=DESK) -> CompareOutcome:
    return compare(
        h,
        QuerySet.explicit([px]),
        QuerySet.explicit([py]),
        eta,
        K,
        delta,
        profile,
    )


def ratio_in_window(out: CompareOutcome, alpha: float, theta: float) -> bool:
    """Whether a compare outcome lands inside the closed window
    [1/(1+alpha+theta/2), 1+alpha+theta/2]."""
    if not out.is_ratio:
        return False
    hi = 1.0 + alpha + theta / 2.0
    return 1.0 / hi <= out.rho <= hi


def neighborhood_grid(kappa, beta, eta, delta):
    """(theta, r): grid step and grid size for the radius draw."""
    theta = kappa * eta * beta * delta / 64.0
    r = int(round(kappa / theta))  # = 64/(eta beta delta)
    return theta, r


def estimate_neighborhood(
    h: OracleHandle,
    x: int,
    kappa: float,
    beta: float,
    eta: float,
    delta: float,
    profile=DESK,
    sample_cap=None,
    eta_floor=None,
    delta_floor=None,
) -> NeighborhoodEstimate:
    """Estimate the mass of the weight-neighborhood of x.

    Draws a radius alpha uniformly from the theta-grid strictly inside
    (kappa, 2 kappa), samples Theta(log(1/delta)/(beta eta^2)) points,
    and classifies each distinct point by one ratio comparison against
    x. Returns the fraction of the sample (as a multiset) whose ratio
    lands in the closed window for alpha.
    """
    if sample_cap is None:
        sample_cap = profile["en_sample_cap"]
    if eta_floor is None:
        eta_floor = profile["en_compare_eta_floor"]
    if delta_floor is None:
        delta_floor = profile["en_compare_delta_floor"]
    theta, r = neighborhood_grid(kappa, beta, eta, delta)
    i = int(h.rng.integers(1, r))
    alpha = kappa + i * theta
    size = math.ceil(profile["en_sample_c"] * math.log(4.0 / delta) / (beta * eta**2))
    size = int(min(size, sample_cap))
    pts = h.draw_many(QuerySet.full(), size)
    uniq, counts = np.unique(pts, return_counts=True)
    c_eta = max(theta / 4.0, eta_floor)
    c_delta = max(delta / (4.0 * size), delta_floor)
    inside = 0
    for y, mult in zip(uniq, counts):
        y = int(y)
        if y == x:
            # Ratio exactly 1, always inside the window.
            inside += int(mult)
            continue
        out = compare_points(h, x, y, c_eta, 4.0, c_delta, profile)
        if ratio_in_window(out, alpha, theta):
            inside += int(mult)
    return NeighborhoodEstimate(inside / size, alpha, theta)
