"""Estimating distance to uniformity with pair queries.

A reference search first finds a point of roughly average weight
together with a calibrated estimate of that weight; the distance
estimator then compares uniformly chosen points against the reference
and averages the per-point shortfall below 1/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distcore import QuerySet
from .errors import check_eps
from .oracles import OracleHandle
from .profiles import DESK
from .subroutines import (Neighborhood, compare_budget, compare_points,
                          compare_to_point, estimate_neighborhood,
                          neighborhood_schedule, ratio_in_window)


@dataclass(frozen=True)
class ReferencePoint:
    point: int
    d_hat: float   # calibrated estimate of D(point)
    w_hat: float   # neighborhood weight estimate
    mu_hat: float  # fraction of uniform points comparable to it
    alpha: float


class Schedule(NamedTuple):
    """One run's numbers; kappa = eps/8."""
    kappa: float
    x_size: int        # candidates drawn by find_reference
    y_size: int        # uniform points compared with a candidate
    en: Neighborhood   # each candidate's neighborhood estimate
    w_gate: float      # least neighborhood weight of a candidate
    y_m: int           # draws per comparison with a uniform point
    mu_gate: float     # least share of uniform points in the neighborhood
    d_bounds: tuple    # (lo, hi) on the candidate's weight estimate
    s: int             # uniform points the distance estimate compares
    delta: float       # their comparisons' confidence, at eta = eps/2


def schedule(n, eps, profile=DESK) -> Schedule:
    check_eps(eps)
    kappa = eps / 8.0
    log_term = math.log2(2.0 / kappa)
    eta_floor = profile["fr_compare_eta_floor"]
    delta_floor = profile["fr_compare_delta_floor"]
    x_size = int(min(math.ceil(profile["fr_x_c"] * log_term / kappa**2),
                     profile["fr_x_cap"]))
    y_size = int(min(math.ceil(profile["fr_y_c"] * log_term**2 / kappa**5),
                     profile["fr_y_cap"]))
    en = neighborhood_schedule(kappa, kappa**2 / (40.0 * log_term), kappa,
                               1.0 / (40.0 * x_size), profile["fr_en_sample_cap"],
                               eta_floor, delta_floor, profile)
    y_m = compare_budget(max(en.theta / 4.0, eta_floor), 4.0,
                         max(1.0 / (40.0 * x_size * y_size), delta_floor), profile)
    w_gate = kappa**2 / (20.0 * log_term)
    mu_gate = kappa**3 / (20.0 * log_term)
    d_bounds = (kappa / (4.0 * n), 2.0 / (kappa * n))
    s = math.ceil(profile["dist_s_c"] / eps**2)
    return Schedule(kappa, x_size, y_size, en, w_gate, y_m, mu_gate, d_bounds,
                    s, 1.0 / (10.0 * s))


def find_reference(h: OracleHandle, sched: Schedule):
    """Search for a point with weight near 1/N and estimate it.

    Returns a ReferencePoint, or None when no candidate passes the
    three gates (which itself certifies a large distance from uniform).
    """
    n = h.dist.n
    candidates = h.draw_many(QuerySet.full(), sched.x_size)
    for x in candidates.tolist():
        en = estimate_neighborhood(h, x, sched.en)
        if en.w_hat < sched.w_gate:
            continue
        ys = h.rng.integers(1, n + 1, size=sched.y_size)
        inside = 0
        for y in ys.tolist():
            # y == x reads ratio 1, as in compare_to_point; a NaN rho (Low
            # or High) fails the window. The pair has mass: x was drawn from D.
            rho = 1.0 if y == x else compare_points(h, x, y, sched.y_m, 4.0)[2]
            inside += ratio_in_window(rho, en.alpha, en.theta)
        mu_hat = inside / sched.y_size
        if mu_hat < sched.mu_gate:
            continue
        d_hat = en.w_hat / (mu_hat * n)
        if sched.d_bounds[0] <= d_hat <= sched.d_bounds[1]:
            return ReferencePoint(x, d_hat, en.w_hat, mu_hat, en.alpha)
    return None


def estimate_distance_to_uniformity(h: OracleHandle, eps: float,
                                    profile=DESK) -> float:
    """Additive-error estimate of the total variation distance between
    the sampled distribution and uniform."""
    n = h.dist.n
    sched = schedule(n, eps, profile)
    ref = find_reference(h, sched)
    if ref is None:
        return 1.0
    x, d_hat, s = ref.point, ref.d_hat, sched.s
    # K, and so the draws per comparison, follow the reference's weight
    # estimate, which only find_reference knows.
    K = max(1.0, 2.0 / (n * d_hat), 4.0 * n * d_hat / eps)
    m = compare_budget(eps / 2.0, K, sched.delta, profile)
    ys = h.rng.integers(1, n + 1, size=s)
    low, high, rho = compare_to_point(h, x, ys, m, K)
    val = rho * d_hat  # estimate of D(y); NaN where Low or High
    short = np.where(low | (val <= eps / (4.0 * n)), 1.0, 1.0 - n * val)
    short[high | (val >= 1.0 / n)] = 0.0
    # cumsum adds left to right, in ys order; np.sum adds pairwise.
    total = float(np.cumsum(short)[-1])
    return min(max(total / s, 0.0), 1.0)
