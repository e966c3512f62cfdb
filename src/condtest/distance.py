"""Estimating distance to uniformity with pair queries.

A reference search first finds a point of roughly average weight
together with a calibrated estimate of that weight; the distance
estimator then compares uniformly chosen points against the reference
and averages the per-point shortfall below 1/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distcore import QuerySet
from .oracles import OracleHandle
from .profiles import DESK
from .subroutines import (compare_points, compare_to_point, estimate_neighborhood,
                          ratio_in_window)


@dataclass(frozen=True)
class ReferencePoint:
    point: int
    d_hat: float   # calibrated estimate of D(point)
    w_hat: float   # neighborhood weight estimate
    mu_hat: float  # fraction of uniform points comparable to it
    alpha: float


def find_reference(h: OracleHandle, kappa: float, profile=DESK):
    """Search for a point with weight near 1/N and estimate it.

    Returns a ReferencePoint, or None when no candidate passes the
    three gates (which itself certifies a large distance from uniform).
    """
    n = h.dist.n
    log_term = math.log2(2.0 / kappa)
    x_size = int(min(math.ceil(profile["fr_x_c"] * log_term / kappa**2),
                     profile["fr_x_cap"]))
    candidates = h.draw_many(QuerySet.full(), x_size)
    beta = kappa**2 / (40.0 * log_term)
    en_delta = 1.0 / (40.0 * x_size)
    y_size = int(min(math.ceil(profile["fr_y_c"] * log_term**2 / kappa**5),
                     profile["fr_y_cap"]))
    w_gate = kappa**2 / (20.0 * log_term)
    mu_gate = kappa**3 / (20.0 * log_term)
    for x in candidates:
        x = int(x)
        en = estimate_neighborhood(
            h, x, kappa, beta, kappa, en_delta, profile,
            sample_cap=profile["fr_en_sample_cap"],
            eta_floor=profile["fr_compare_eta_floor"],
            delta_floor=profile["fr_compare_delta_floor"],
        )
        if en.w_hat < w_gate:
            continue
        c_eta = max(en.theta / 4.0, profile["fr_compare_eta_floor"])
        c_delta = max(1.0 / (40.0 * x_size * y_size),
                      profile["fr_compare_delta_floor"])
        ys = h.rng.integers(1, n + 1, size=y_size)
        inside = 0
        for y in ys:
            y = int(y)
            if y == x:
                inside += 1
                continue
            # The pair always has mass: x was drawn from D.
            out = compare_points(h, x, y, c_eta, 4.0, c_delta, profile)
            if out.is_ratio and ratio_in_window(out.rho, en.alpha, en.theta):
                inside += 1
        mu_hat = inside / y_size
        if mu_hat < mu_gate:
            continue
        d_hat = en.w_hat / (mu_hat * n)
        if kappa / (4.0 * n) <= d_hat <= 2.0 / (kappa * n):
            return ReferencePoint(x, d_hat, en.w_hat, mu_hat, en.alpha)
    return None


def estimate_distance_to_uniformity(h: OracleHandle, eps: float,
                                    profile=DESK) -> float:
    """Additive-error estimate of the total variation distance between
    the sampled distribution and uniform."""
    n = h.dist.n
    kappa = eps / 8.0
    ref = find_reference(h, kappa, profile)
    if ref is None:
        return 1.0
    x, d_hat = ref.point, ref.d_hat
    s = math.ceil(profile["dist_s_c"] / eps**2)
    K = max(1.0, 2.0 / (n * d_hat), 4.0 * n * d_hat / eps)
    delta = 1.0 / (10.0 * s)
    ys = h.rng.integers(1, n + 1, size=s)
    low, high, rho = compare_to_point(h, x, ys, eps / 2.0, K, delta, profile)
    val = rho * d_hat  # estimate of D(y); NaN where Low or High
    short = np.where(low | (val <= eps / (4.0 * n)), 1.0, 1.0 - n * val)
    short[high | (val >= 1.0 / n)] = 0.0
    # cumsum adds left to right, in ys order; np.sum adds pairwise.
    total = float(np.cumsum(short)[-1])
    return min(max(total / s, 0.0), 1.0)
