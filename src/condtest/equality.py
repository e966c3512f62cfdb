"""Testing equality of two unknown distributions.

Two routes: a pair-query tester that matches neighborhood weights of
reference points across the two distributions, and a general
conditional-query tester built on an approximate point-mass evaluator
(a multiplicative-weight binary drill-down that either returns a
(1 +- eps) estimate of D(i) or Unknown for points in the light tail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distcore import QuerySet
from .errors import EvalFailed, ZeroMassSet
from .oracles import OracleHandle
from .profiles import DESK
from .subroutines import (classify, compare_budget, estimate_neighborhood,
                          neighborhood_grid, ratio_in_window)
from .uniformity import ACCEPT, REJECT


# Pair-query equality tester ----------------------------------------


def equality_schedule(n, eps, profile=DESK):
    """(t, s1, s2): reference count and the two cross-sample sizes."""
    t = math.ceil(profile["eq_t_c"] * math.log2(2.0 * n) / eps**2)
    s1 = math.ceil(profile["eq_s1_c"] * t / eps**2)
    s2 = math.ceil(profile["eq_s2_c"] * t * math.log2(t + 1.0) / eps**3)
    return t, s1, s2


def _first_dead(hits):
    """Index of the first zero-mass count (-1), or the number of counts."""
    return int(np.argmax(hits < 0)) if (hits < 0).any() else hits.size


def pcond_test_equality(h1: OracleHandle, h2: OracleHandle, eps: float,
                        profile=DESK) -> str:
    """Compare every pooled sample point against each of t references
    drawn from D1, under both oracles, and reject when the neighborhood
    weights or the pointwise ratios disagree, or when D2 gives a pair
    zero mass. Cost: per reference, one estimate_neighborhood and one
    draw_pair_counts call on each handle, with the draws, charges and
    generator states of two compare_points calls per point.
    """
    n = h1.dist.n
    et = eps / 100.0
    t, s1, s2 = equality_schedule(n, eps, profile)
    full = QuerySet.full()
    refs = h1.draw_many(full, t)
    sample1 = h1.draw_many(full, s1)
    sample2 = h2.draw_many(full, s2)
    uniq = np.unique(np.concatenate((sample1, sample2)))
    in_sample2 = np.searchsorted(uniq, sample2)
    kappa, en_eta, beta, en_delta = et, et / 8.0, et / (2.0 * t), 1.0 / (100.0 * t)
    theta, _ = neighborhood_grid(kappa, beta, en_eta, en_delta)
    c_eta = max(theta / 4.0, profile["eq_compare_eta_floor"])
    c_delta = max(1.0 / (200.0 * t * (s1 + s2)), profile["eq_compare_delta_floor"])
    m = compare_budget(c_eta, 4.0, c_delta, profile)
    for r in refs:
        r = int(r)
        en = estimate_neighborhood(h1, r, kappa, beta, en_eta, en_delta, profile,
                                   sample_cap=profile["eq_en_sample_cap"],
                                   eta_floor=profile["eq_compare_eta_floor"],
                                   delta_floor=profile["eq_compare_delta_floor"])
        w1, alpha = en.w_hat, en.alpha
        others = uniq != r
        ys = uniq[others]
        # Only D2 can give a pair zero mass: r was drawn from D1. Point by
        # point, h1 compares before h2, so h1 is charged for one more.
        hits2 = h2.draw_pair_counts(r, ys, m, reached=_first_dead)
        if hits2.size < ys.size:
            h1.draw_pair_counts(r, ys, m, reached=lambda _: hits2.size + 1)
            return REJECT
        rho1, rho2 = np.ones((2, uniq.size))
        rho1[others] = classify(h1.draw_pair_counts(r, ys, m), m, 4.0)[2]
        rho2[others] = classify(hits2, m, 4.0)[2]
        w2 = np.count_nonzero(ratio_in_window(rho1, alpha, theta)[in_sample2]) / s2
        # Neighborhood weights must agree across the two distributions.
        if w1 <= 0.75 * et / t:
            if w2 > 1.5 * et / t:
                return REJECT
        elif not ((1.0 - et / 2.0) * w1 <= w2 <= (1.0 + et / 2.0) * w1):
            return REJECT
        # Pointwise: a ratio close to the window on one side must stay
        # near it on the other.
        if (ratio_in_window(rho1, alpha, et)
                & ~ratio_in_window(rho2, alpha, 3.0 * et)).any():
            return REJECT
    return ACCEPT


# Approximate point-mass evaluator ----------------------------------


@dataclass(frozen=True)
class EvalResult:
    tag: str  # "value" | "unknown"
    estimate: float = None

    @property
    def is_value(self):
        return self.tag == "value"


VALUE = "value"
UNKNOWN = "unknown"


def eval_round_budget(n, eps, delta, profile=DESK):
    """(M, kappa, m): round cap, heaviness threshold, per-round draws."""
    K = 9.0
    cap = profile["ae_eps_cap"]
    if eps > cap:
        eps = cap / 2.0
    M = math.ceil(math.log2(n) + math.log2(K / delta) + 1.0)
    kappa = profile["ae_kappa_c"] * eps / (M * M * math.log2(M / delta))
    m1 = M * M * math.log2(M / delta) / (eps * eps * kappa)
    m2 = math.log2(M / (delta * kappa)) / kappa**2
    m = math.ceil(profile["ae_m_c"] * max(m1, m2))
    m = max(m, math.ceil(profile["ae_m_floor_c"] / kappa), int(profile["ae_m_min"]))
    m = int(min(m, profile["ae_m_cap"]))
    return M, kappa, eps, m


def approx_eval(h: OracleHandle, i_star: int, eps: float, delta: float,
                profile=DESK) -> EvalResult:
    """Estimate D(i_star) by repeatedly halving a conditioning set.

    Each round draws a batch on the current set; points that hog the
    batch are set aside, and a fair coin keeps or drops every other
    point. The estimate telescopes the per-round conditional fractions
    of the surviving set. Returns Unknown when the heavy part is nearly
    everything or the surviving set looks empty; raises EvalFailed if
    the round cap runs out.
    """
    n = h.dist.n
    M, kappa, eps, m = eval_round_budget(n, eps, delta, profile)
    members = None  # None stands for the full domain
    d_hat = 1.0
    for _ in range(M):
        if members is not None and members.size == 1:
            return EvalResult(VALUE, d_hat)
        qs = QuerySet.full() if members is None else QuerySet.explicit(members)
        try:
            idx, counts = h.draw_counts(qs, m)
        except ZeroMassSet:
            return EvalResult(UNKNOWN)
        if members is None:
            members = np.arange(1, n + 1, dtype=np.int64)
        pos = np.searchsorted(idx, i_star)
        star_frac = (
            counts[pos] / m if pos < idx.size and idx[pos] == i_star else 0.0
        )
        if star_frac >= kappa / 20.0:
            members = np.array([i_star], dtype=np.int64)
            d_hat *= star_frac
            continue
        heavy = idx[counts >= 0.75 * kappa * m]
        if counts[counts >= 0.75 * kappa * m].sum() / m > 1.0 - eps / 10.0:
            return EvalResult(UNKNOWN)
        rest = members[~np.isin(members, heavy)]
        rest = rest[rest != i_star]
        keep = h.rng.random(rest.size) < 0.5
        nxt = np.concatenate((rest[keep], [i_star]))
        nxt.sort()
        frac = counts[np.isin(idx, nxt)].sum() / m
        if frac == 0.0:
            return EvalResult(UNKNOWN)
        d_hat *= frac
        members = nxt
    if members is not None and members.size == 1:
        return EvalResult(VALUE, d_hat)
    raise EvalFailed(f"no resolution after {M} rounds")


# Evaluator-based equality tester -----------------------------------


def eval_test_equality(h1: OracleHandle, h2: OracleHandle, eps: float,
                       profile=DESK) -> str:
    """Majority verdict of three independent repetitions."""
    votes = sum(
        _eval_test_equality_once(h1, h2, eps, profile) == ACCEPT for _ in range(3)
    )
    return ACCEPT if votes >= 2 else REJECT


def _eval_test_equality_once(h1, h2, eps, profile):
    m = math.ceil(5.0 / eps)
    full = QuerySet.full()
    pts = np.concatenate((h1.draw_many(full, m), h2.draw_many(full, m)))
    sub_eps = eps / 100.0
    for x in pts:
        x = int(x)
        try:
            r1 = approx_eval(h1, x, sub_eps, sub_eps, profile)
            r2 = approx_eval(h2, x, sub_eps, sub_eps, profile)
        except EvalFailed:
            return REJECT
        if not (r1.is_value and r2.is_value):
            return REJECT
        lo = (1.0 - eps / 8.0) * r2.estimate
        hi = (1.0 + eps / 8.0) * r2.estimate
        if not (lo <= r1.estimate <= hi):
            return REJECT
    return ACCEPT
