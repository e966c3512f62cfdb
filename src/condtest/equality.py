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

from .distcore import QuerySet
from .errors import EvalFailed, ZeroMassSet, check_eps
from .oracles import OracleHandle
from .profiles import DESK
from .subroutines import (Neighborhood, classify, compare_budget,
                          estimate_neighborhood, neighborhood_schedule,
                          ratio_in_window)
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
        hits2 = h2.draw_pair_counts(r, ys, m, reached=_first_dead)
        if hits2.size < ys.size:
            h1.draw_pair_counts(r, ys[:hits2.size + 1], m)
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


def approx_eval(h: OracleHandle, i_star: int, budget: EvalBudget) -> float | None:
    """Estimate D(i_star) by repeatedly halving a conditioning set.

    Each round draws a batch on the current set; points that hog the
    batch are set aside, and a fair coin keeps or drops every other
    point. The estimate telescopes the per-round conditional fractions
    of the surviving set. Returns the estimate, or None (Unknown) when
    the heavy part is nearly everything or the surviving set looks
    empty; raises EvalFailed if the round cap runs out.
    """
    n = h.dist.n
    M, kappa, eps, m = budget
    members = None  # None stands for the full domain
    d_hat = 1.0
    for _ in range(M):
        if members is not None and members.size == 1:
            return d_hat
        qs = QuerySet.full() if members is None else QuerySet.explicit(members)
        try:
            idx, counts = h.draw_counts(qs, m)
        except ZeroMassSet:
            return None
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
    if members is not None and members.size == 1:
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
    sched = eval_schedule(h1.dist.n, eps, profile)
    votes = sum(_eval_test_equality_once(h1, h2, sched) == ACCEPT for _ in range(3))
    return ACCEPT if votes >= 2 else REJECT


def _eval_test_equality_once(h1, h2, sched):
    m, budget, (lo_factor, hi_factor) = sched
    full = QuerySet.full()
    pts = np.concatenate((h1.draw_many(full, m), h2.draw_many(full, m)))
    for x in pts:
        x = int(x)
        try:
            r1 = approx_eval(h1, x, budget)
            r2 = approx_eval(h2, x, budget)
        except EvalFailed:
            return REJECT
        if r1 is None or r2 is None or not (lo_factor * r2 <= r1 <= hi_factor * r2):
            return REJECT
    return ACCEPT
