"""Shared estimation subroutines used by every tester.

compare_points estimates the weight ratio of two points from
conditional draws on the pair; compare_to_point makes many such
comparisons against one point in one draw_pair_counts call, as
estimate_neighborhood does once per estimate of a point's
weight-neighborhood mass. classify reads the hit counts of the batched
kernels as the outcomes compare_points would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distcore import QuerySet
from .errors import SetsNotDisjoint
from .oracles import OracleHandle
from .profiles import DESK


LOW = "low"
HIGH = "high"
RATIO = "ratio"


@dataclass(frozen=True)
class CompareOutcome:
    tag: str
    rho: float = None

    @property
    def is_low(self):
        return self.tag == LOW

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


def compare_points(h, px, py, eta, K, delta, profile=DESK) -> CompareOutcome:
    """Estimate D(py)/D(px) from compare_budget draws on the pair {px, py}:
    Low when the hit fraction for py is below (2/3)/(K+1), High when the
    miss fraction is, and otherwise the ratio estimate mu/(1-mu)."""
    sub = QuerySet.explicit([py])
    if px == py:
        raise SetsNotDisjoint("compare_points needs two distinct points")
    pair = QuerySet.pair(px, py)
    m = compare_budget(eta, K, delta, profile)
    mu = h.draw_subset_count(pair, sub, m) / m
    thr = _saturation(K)
    if mu < thr:
        return CompareOutcome(LOW)
    if 1.0 - mu < thr:
        return CompareOutcome(HIGH)
    return CompareOutcome(RATIO, mu / (1.0 - mu))


def compare_to_point(h, x, ys, eta, K, delta, profile=DESK):
    """compare_points(h, x, y, ...) for each y in ys, in one
    draw_pair_counts call with the draws, charges and generator state
    of those calls in order: classify's (low, high, rho). A y equal to
    x is neither drawn nor charged and reads as ratio 1. x must have
    positive weight, as an x the oracle returned has: no pair then has
    zero mass, whose -1 count classify would read as Low."""
    ys = np.asarray(ys, dtype=np.int64)
    other = ys != x
    y = ys[other]
    m = compare_budget(eta, K, delta, profile)
    hits = h.draw_pair_counts(x, y, m)
    low, high = np.zeros((2, ys.size), dtype=bool)
    rho = np.ones(ys.size)
    low[other], high[other], rho[other] = classify(hits, m, K)
    return low, high, rho


def ratio_in_window(rho, alpha: float, theta: float):
    """Whether each ratio in rho lies in the closed window
    [1/(1+alpha+theta/2), 1+alpha+theta/2]; NaN (Low or High) does not."""
    hi = 1.0 + alpha + theta / 2.0
    return (1.0 / hi <= rho) & (rho <= hi)


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

    Cost: one draw_many and one draw_pair_counts call per estimate.
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
    rho = compare_to_point(h, x, uniq, c_eta, 4.0, c_delta, profile)[2]
    inside = int(counts[ratio_in_window(rho, alpha, theta)].sum())
    return NeighborhoodEstimate(inside / size, alpha, theta)
