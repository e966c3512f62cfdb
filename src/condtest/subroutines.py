"""Shared estimation subroutines used by every tester.

compare_points estimates the weight ratio of two points from m
conditional draws on the pair; compare_to_point makes many such
comparisons against one point in one draw_subset_counts call, as
estimate_neighborhood does once per estimate of a point's
weight-neighborhood mass. Each answers as classify reads a hit count:
(low, high, rho), the Low and High flags and rho, NaN on Low or High.

None of them reads the profile: the draw budget m, the sample size and
the radius grid come from the calling tester's schedule, which
compare_budget and neighborhood_schedule help it compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distcore import PAIR, QuerySet
from .errors import SetsNotDisjoint, ZeroMassSet, check_draws
from .oracles import OracleHandle
from .profiles import DESK


@dataclass(frozen=True)
class NeighborhoodEstimate:
    w_hat: float
    alpha: float
    theta: float


def compare_budget(eta, K, delta, profile=DESK) -> int:
    m = math.ceil(profile["compare_c"] * K * math.log(2.0 / delta) / eta**2)
    return int(min(m, profile["compare_max_draws"]))


def _saturation(K):
    """The hit (or miss) fraction below which a comparison answers Low
    (or High) instead of a ratio."""
    return (2.0 / 3.0) / (K + 1.0)


def classify(hits, m, K):
    """compare_points' outcome for each count in the array hits of m draws:
    (low, high, rho), the masks of the Low and High outcomes and the
    ratio estimate mu/(1-mu), NaN where the outcome is Low or High.

    Takes the thresholds and float operations of compare_points, so each
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


def compare_points(h, px, py, m, K):
    """Estimate D(py)/D(px) from m >= 1 draws on {px, py}, as classify
    reads one count: low when the hit fraction mu is below (2/3)/(K+1),
    high when 1 - mu is, and rho = mu/(1-mu), NaN when low or high."""
    sub = QuerySet.explicit([py])
    if px == py:
        raise SetsNotDisjoint("compare_points needs two distinct points")
    check_draws(m, 1)
    pair = QuerySet.pair(px, py)
    mu = h.draw_subset_count(pair, sub, m) / m
    thr = _saturation(K)
    low = mu < thr
    high = not low and 1.0 - mu < thr
    return low, high, math.nan if low or high else mu / (1.0 - mu)


def _first_dead(hits):
    """Index of the first zero-mass count (-1), or the number of counts."""
    dead = hits < 0
    return int(np.argmax(dead)) if dead.any() else dead.size


def compare_to_point(h, x, ys, m, K):
    """compare_points(h, x, y, ...) for each y in ys, in one
    draw_subset_counts call with the checks and charges of those calls
    in order: classify's (low, high, rho). A y equal to x is neither
    drawn nor charged and reads as ratio 1; a zero-mass pair raises
    ZeroMassSet, charged for the pairs before it. m >= 1."""
    check_draws(m, 1)
    ys = np.asarray(ys, dtype=np.int64)
    other = ys != x
    y = ys[other]
    hits = h.draw_subset_counts(PAIR, (x, y), m, reached=_first_dead)
    if hits.size < y.size:
        raise ZeroMassSet("oracle failure: query set has zero mass")
    low, high = np.zeros((2, ys.size), dtype=bool)
    rho = np.ones(ys.size)
    low[other], high[other], rho[other] = classify(hits, m, K)
    return low, high, rho


def ratio_in_window(rho, alpha: float, theta: float):
    """Whether each ratio in rho lies in the closed window
    [1/(1+alpha+theta/2), 1+alpha+theta/2]; NaN (Low or High) does not."""
    hi = 1.0 + alpha + theta / 2.0
    return (1.0 / hi <= rho) & (rho <= hi)


class Neighborhood(NamedTuple):
    """estimate_neighborhood's numbers."""
    kappa: float       # radii kappa + i theta, i in [1, r)
    theta: float
    r: int
    size: int          # points sampled
    m: int             # draws per comparison


def neighborhood_schedule(kappa, beta, eta, delta, sample_cap, eta_floor,
                          delta_floor, profile=DESK) -> Neighborhood:
    theta = kappa * eta * beta * delta / 64.0
    r = int(round(kappa / theta))  # = 64/(eta beta delta)
    size = math.ceil(profile["en_sample_c"] * math.log(4.0 / delta) / (beta * eta**2))
    size = int(min(size, sample_cap))
    c_eta = max(theta / 4.0, eta_floor)
    c_delta = max(delta / (4.0 * size), delta_floor)
    m = compare_budget(c_eta, 4.0, c_delta, profile)
    return Neighborhood(kappa, theta, r, size, m)


def estimate_neighborhood(h: OracleHandle, x: int,
                          en: Neighborhood) -> NeighborhoodEstimate:
    """Estimate the mass of the weight-neighborhood of x.

    Draws a radius alpha uniformly from the theta-grid strictly inside
    (kappa, 2 kappa), samples en.size points, and classifies each
    distinct point by one ratio comparison against x. Returns the
    fraction of the sample (as a multiset) whose ratio lands in the
    closed window for alpha.

    Cost: one draw_many and one draw_subset_counts call per estimate.
    """
    alpha = en.kappa + int(h.rng.integers(1, en.r)) * en.theta
    pts = h.draw_many(QuerySet.full(), en.size)
    uniq, counts = np.unique(pts, return_counts=True)
    rho = compare_to_point(h, x, uniq, en.m, 4.0)[2]
    inside = int(counts[ratio_in_window(rho, alpha, en.theta)].sum())
    return NeighborhoodEstimate(inside / en.size, alpha, en.theta)
