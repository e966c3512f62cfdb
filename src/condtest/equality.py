"""Testing equality of two unknown distributions.

Two routes: a pair-query tester that matches neighborhood weights of
reference points across the two distributions, and a general
conditional-query tester built on approx_eval, a multiplicative-weight
binary drill-down that returns a (1 +- eps) estimate of D(i), or None
(the paper's Unknown) for points in the light tail.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .distcore import PAIR, QuerySet
from .errors import EvalFailed, check_eps, check_same_domain
from .oracles import OracleHandle
from .profiles import DESK
from .subroutines import (Neighborhood, _first_dead, classify,
                          compare_budget, estimate_neighborhood,
                          neighborhood_schedule, ratio_in_window)
from .uniformity import ACCEPT, REJECT


# Pair-query equality tester ----------------------------------------


class PcondSchedule(NamedTuple):
    """pcond_test_equality's numbers."""
    et: float          # eps/100, the scale of every window
    t: int             # references drawn from D1
    s1: int            # points drawn from D1
    s2: int            # points drawn from D2
    en: Neighborhood   # each reference's neighborhood estimate under D1
    m: int             # draws per cross comparison


def pcond_schedule(n, eps, profile=DESK) -> PcondSchedule:
    check_eps(eps)
    et = eps / 100.0
    t = math.ceil(profile["eq_t_c"] * math.log2(2.0 * n) / eps**2)
    s1 = math.ceil(profile["eq_s1_c"] * t / eps**2)
    s2 = math.ceil(profile["eq_s2_c"] * t * math.log2(t + 1.0) / eps**3)
    eta_floor = profile["eq_compare_eta_floor"]
    delta_floor = profile["eq_compare_delta_floor"]
    en = neighborhood_schedule(et, et / (2.0 * t), et / 8.0, 1.0 / (100.0 * t),
                               profile["eq_en_sample_cap"], eta_floor, delta_floor,
                               profile)
    m = compare_budget(max(en.theta / 4.0, eta_floor), 4.0,
                       max(1.0 / (200.0 * t * (s1 + s2)), delta_floor), profile)
    return PcondSchedule(et, t, s1, s2, en, m)


def pcond_test_equality(h1: OracleHandle, h2: OracleHandle, eps: float,
                        profile=DESK) -> str:
    """Compare every pooled sample point against each of t references
    drawn from D1, under both oracles, and reject when the neighborhood
    weights or the pointwise ratios disagree, or when D2 gives a pair
    zero mass. Cost: per reference, one estimate_neighborhood and one
    draw_subset_counts call on each handle, with the charges of two
    compare_points calls per point.
    """
    check_same_domain(h1.dist.n, h2.dist.n)
    et, t, s1, s2, en_sched, m = pcond_schedule(h1.dist.n, eps, profile)
    full = QuerySet.full()
    refs = h1.draw_many(full, t)
    sample1 = h1.draw_many(full, s1)
    sample2 = h2.draw_many(full, s2)
    uniq = np.unique(np.concatenate((sample1, sample2)))
    in_sample2 = np.searchsorted(uniq, sample2)
    for r in refs:
        r = int(r)
        en = estimate_neighborhood(h1, r, en_sched)
        w1, alpha, theta = en.w_hat, en.alpha, en.theta
        others = uniq != r
        ys = uniq[others]
        # Only D2 can give a pair zero mass: r was drawn from D1. Point by
        # point, h1 compares before h2, so h1 is charged for one more.
        hits2 = h2.draw_subset_counts(PAIR, (r, ys), m, reached=_first_dead)
        hits1 = h1.draw_subset_counts(PAIR, (r, ys), m,
                                      reached=lambda _: min(hits2.size + 1, ys.size))
        if hits2.size < ys.size:
            return REJECT
        rho1, rho2 = np.ones((2, uniq.size))
        rho1[others] = classify(hits1, m, 4.0)[2]
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


class EvalBudget(NamedTuple):
    """approx_eval's numbers."""
    M: int             # round cap
    kappa: float       # heaviness threshold
    eps: float         # eps, clamped below ae_eps_cap
    m: int             # draws per round


def approx_eval_schedule(n, eps, delta, profile=DESK) -> EvalBudget:
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
    return EvalBudget(M, kappa, eps, m)


def _settles(share, budget: EvalBudget):
    """Whether a point's share of a round's draws settles it in
    approx_eval: at least kappa/20."""
    return share >= budget.kappa / 20.0


def approx_eval(h: OracleHandle, i_star: int, budget: EvalBudget) -> float | None:
    """Estimate D(i_star) by repeatedly halving a conditioning set.

    Each round draws a batch on the current set; points that hog the
    batch are set aside, and a fair coin keeps or drops every other
    point. The estimate telescopes the per-round conditional fractions
    of the surviving set. Returns the estimate, or None (Unknown) when
    the heavy part is nearly everything or the surviving set looks
    empty; raises EvalFailed if the round cap runs out. Round one draws
    i_star's count first, one binomial, and the rest of its histogram
    on the full domain only when that count does not settle i_star.
    """
    M, kappa, eps, m = budget
    full = QuerySet.full()
    c = h.draw_subset_count(full, QuerySet.explicit([i_star]), m)
    if _settles(c / m, budget):
        return c / m
    idx, counts = h.draw_counts(full, m, given=(i_star, c))
    members = np.arange(1, h.dist.n + 1, dtype=np.int64)
    d_hat = 1.0
    for r in range(M):
        if r:
            # members holds a point the round before drew (frac > 0), so
            # it has mass, and under STRICT that point was returned.
            idx, counts = h.draw_counts(QuerySet.explicit(members), m)
            pos = np.searchsorted(idx, i_star)
            star_frac = counts[pos] / m if pos < idx.size and idx[pos] == i_star else 0.0
            if _settles(star_frac, budget):
                return d_hat * star_frac
        heavy = idx[counts >= 0.75 * kappa * m]
        if counts[counts >= 0.75 * kappa * m].sum() / m > 1.0 - eps / 10.0:
            return None
        rest = members[~np.isin(members, heavy)]
        rest = rest[rest != i_star]
        keep = h.rng.random(rest.size) < 0.5
        nxt = np.concatenate((rest[keep], [i_star]))
        nxt.sort()
        frac = counts[np.isin(idx, nxt)].sum() / m
        if frac == 0.0:
            return None
        d_hat *= frac
        members = nxt
        if members.size == 1:
            return d_hat
    raise EvalFailed(f"no resolution after {M} rounds")


# Evaluator-based equality tester -----------------------------------


class EvalSchedule(NamedTuple):
    """eval_test_equality's numbers."""
    m: int               # points drawn from each side
    budget: EvalBudget   # each point's approx_eval, at eps/100
    window: tuple        # (lo, hi) factors on D2's estimate, 1 -+ eps/8


def eval_schedule(n, eps, profile=DESK) -> EvalSchedule:
    check_eps(eps)
    sub_eps = eps / 100.0
    return EvalSchedule(math.ceil(5.0 / eps),
                        approx_eval_schedule(n, sub_eps, sub_eps, profile),
                        (1.0 - eps / 8.0, 1.0 + eps / 8.0))


def eval_test_equality(h1: OracleHandle, h2: OracleHandle, eps: float,
                       profile=DESK) -> str:
    """Majority verdict of three independent repetitions."""
    check_same_domain(h1.dist.n, h2.dist.n)
    sched = eval_schedule(h1.dist.n, eps, profile)
    votes = sum(_eval_test_equality_once(h1, h2, sched) == ACCEPT for _ in range(3))
    return ACCEPT if votes >= 2 else REJECT


def _point_agrees(h1, h2, x, budget, window):
    """approx_eval of x on h1, then on h2, and whether both estimates
    exist and D2's window around the second holds the first."""
    try:
        r1, r2 = approx_eval(h1, x, budget), approx_eval(h2, x, budget)
    except EvalFailed:
        return False
    lo_factor, hi_factor = window
    return r1 is not None and r2 is not None and lo_factor * r2 <= r1 <= hi_factor * r2


def _eval_test_equality_once(h1, h2, sched):
    """Draw m points from each side, then evaluate them in order until
    one's estimates do not agree."""
    m, budget, window = sched
    full = QuerySet.full()
    pts = np.concatenate((h1.draw_many(full, m), h2.draw_many(full, m)))
    return ACCEPT if all(_point_agrees(h1, h2, x, budget, window)
                         for x in pts.tolist()) else REJECT
