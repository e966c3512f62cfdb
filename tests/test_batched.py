"""The batched comparison kernels against the scalar loops they replaced.

OracleHandle.draw_subset_counts on pairs, intervals and unions,
pcond_test_uniform, binary_descent, cond_test_known's Main branch,
estimate_neighborhood, estimate_distance_to_uniformity and
pcond_test_equality's cross loop draw many comparisons in one call;
cond_test_known's Heavy branch checks its frequencies in array
operations.
Each is held here against a verbatim copy of the scalar loop it
replaced: hit counts element by element, verdicts and values exactly,
every ledger column, and the state the generator is left in. A batched
call draws every set it is given and charges only those before a
stop, so where a batch stops part way the loop's generator is compared
once it has drawn the rest of that batch (assert_same_state).
eval_test_equality's approx_eval draws round one as i*'s count, one
binomial, and the rest of that histogram only when the count does not
settle i* (OracleHandle.draw_counts(given=...)). The rest is held
against draw_counts on S without i*, number for number, and the two
draws together against one multinomial, in law. approx_eval is held against the
loop that draws every round one whole, in law: accept rates and the
distribution of every ledger column on disjoint seeds, by
tools/law_check.py's comparison; its verdicts at a few seeds are fixed.
find_reference, which calls estimate_neighborhood, is held against a
copy that calls the scalar one. The copies read a comparison's
(low, high, rho) triple where the replaced code read the tags of an
outcome object, which is gone.

The copies that compare intervals, or a point against a witness set,
call `compare` below: the paper's COMPARE of two disjoint sets, with
disjointness and the union worked out on member arrays. compare_points
is held against it seed for seed.

draw_subset_counts is held against draw_subset_count called set by set
on random batches of every shape, model and discipline. Its refusals,
compare_points', and those of the comparisons of no draws and of
draw_counts, are one table.
"""

import math
import sys
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condtest import distance, harness, interval
from condtest.adversarial import (
    gen_block_profile,
    gen_half_split,
    gen_staircase,
    rand_block_profile,
)
from condtest.distance import (
    ReferencePoint,
    estimate_distance_to_uniformity,
    find_reference,
)
from condtest.distcore import (EXPLICIT, FULL, INTERVAL, PAIR, Distribution, QuerySet,
                               make_distribution, uniform)
from condtest import equality
from condtest.equality import _eval_test_equality_once, eval_schedule, pcond_test_equality
from condtest.errors import (
    BadDrawCount,
    BadQuerySet,
    CondtestError,
    DisciplineViolation,
    EvalFailed,
    IllegalShapeForModel,
    SetsNotDisjoint,
    ZeroMassSet,
)
from condtest.identity import (
    KnownTarget,
    _test_known_main,
    cond_schedule,
    cond_test_known,
)
from condtest.interval import binary_descent, icond_test_uniform
from condtest.oracles import COND, ICOND, PCOND, PERMISSIVE, STRICT, OracleHandle
from condtest.profiles import DESK, ConstantsProfile
from condtest.subroutines import (
    NeighborhoodEstimate,
    _saturation,
    classify,
    compare_budget,
    compare_points,
    compare_to_point,
    estimate_neighborhood,
    neighborhood_schedule,
)
from condtest.uniformity import ACCEPT, REJECT, pcond_test_uniform, query_budget, schedule

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import law_check  # noqa: E402


# The scalar loops, kept verbatim as references --------------------------


def ref_union(x, y, n):
    """x union y for disjoint x and y, on member arrays: an interval
    when both are adjacent intervals, a pair when both are single
    points, otherwise an explicit set."""
    if x.shape == INTERVAL and y.shape == INTERVAL:
        if x.b + 1 == y.a:
            return QuerySet.interval(x.a, y.b)
        if y.b + 1 == x.a:
            return QuerySet.interval(y.a, x.b)
    xi = x.members(n)
    yi = y.members(n)
    if xi.size == 1 and yi.size == 1:
        return QuerySet.pair(int(xi[0]), int(yi[0]))
    merged = np.concatenate((xi, yi))
    merged.sort()
    return QuerySet.explicit(merged)


def compare(h, x, y, eta, K, delta, profile=DESK):
    """Estimate D(Y)/D(X) from compare_budget draws on X union Y, as
    (low, high, rho): Low when the hit fraction for Y is below
    (2/3)/(K+1), High when the miss fraction is, and otherwise the
    ratio rho = mu/(1-mu), NaN on Low or High."""
    n = h.dist.n
    if np.intersect1d(x.members(n), y.members(n)).size:
        raise SetsNotDisjoint("compare needs disjoint sets")
    m = compare_budget(eta, K, delta, profile)
    mu = h.draw_subset_count(ref_union(x, y, n), y, m) / m
    thr = _saturation(K)
    if mu < thr:
        return True, False, math.nan
    if 1.0 - mu < thr:
        return False, True, math.nan
    return False, False, mu / (1.0 - mu)


def hit_fraction(out):
    """The hit-rate estimate of a compare outcome; 0 and 1 for the
    saturated outcomes."""
    low, high, rho = out
    if low:
        return 0.0
    if high:
        return 1.0
    return rho / (1.0 + rho)


def reference_pcond_test_uniform(h, eps, profile=DESK):
    """pcond_test_uniform as one compare_points call per (reference,
    point) pair."""
    n = h.dist.n
    if n == 1:
        return "Accept"
    q, stages = schedule(eps, profile)
    refs = h.rng.integers(1, n + 1, size=q)
    full = QuerySet.full()
    reject = False
    for s_j, window, m_j in stages:
        drawn = h.draw_many(full, s_j)
        fresh = h.rng.integers(1, n + 1, size=s_j)
        for x in refs:
            x = int(x)
            for batch in (drawn, fresh):
                for y in batch:
                    y = int(y)
                    if x == y:
                        h.burn(full, m_j)
                        continue
                    try:
                        out = compare_points(h, x, y, m_j, 2.0)
                    except ZeroMassSet:
                        reject = True
                        h.burn(full, m_j)
                        continue
                    if abs(hit_fraction(out) - 0.5) > window:
                        reject = True
    return "Reject" if reject else "Accept"


def reference_binary_descent(h, y, eps, profile=DESK):
    """binary_descent for one point as one interval compare call per
    level."""
    n = h.dist.n
    a, b = 1, n
    if a == b:
        return 1.0
    log_n = math.log2(n)
    eta, delta = eps / (48.0 * log_n), eps / (100.0 * (1.0 + log_n))
    value = 1.0
    while a < b:
        c = (a + b) // 2
        half = (b - a + 1) / 2.0
        if y <= c:
            side = (a, c)
            other = (c + 1, b)
            rho_star = math.ceil(half) / math.floor(half)
        else:
            side = (c + 1, b)
            other = (a, c)
            rho_star = math.floor(half) / math.ceil(half)
        try:
            low, high, rho = compare(
                h,
                QuerySet.interval(*other),
                QuerySet.interval(*side),
                eta,
                2.0,
                delta,
                profile,
            )
        except ZeroMassSet:
            return None
        if low or high:
            return None
        if not ((1.0 - eta) * rho_star <= rho <= (1.0 + eta) * rho_star):
            return None
        value *= rho / (1.0 + rho)
        a, b = side
    return value


def reference_icond_test_uniform(h, eps, profile=DESK):
    n = h.dist.n
    if n == 1:
        return "Accept"
    t = math.ceil(profile["icond_t_c"] / eps)
    pts = h.draw_many(QuerySet.full(), t)
    lo = (1.0 - eps / 12.0) / n
    hi = (1.0 + eps / 12.0) / n
    for y in pts:
        v = reference_binary_descent(h, int(y), eps, profile)
        if v is None or not (lo <= v <= hi):
            return "Reject"
    return "Accept"


def reference_test_known_heavy(h, target, sp, sched):
    """Every position at or above the split is individually heavy;
    check their frequencies point by point."""
    eps1, m = sched.eps1, sched.heavy_m
    idx, counts = h.draw_counts(QuerySet.full(), m)
    freq = np.zeros(target.n + 1)
    freq[idx] = counts / m
    upper_mass = 0.0
    reject = False
    for pos in range(sp.i_star, target.n + 1):
        label = int(target.sorted_order[pos - 1])
        est = float(freq[label])
        upper_mass += est
        if abs(est - target.weight_at(pos)) > eps1**2:
            reject = True
    leftover = 1.0 - upper_mass
    if leftover - target.prefix_mass(sp.i_star - 1) > eps1:
        reject = True
    return REJECT if reject else ACCEPT


def reference_test_known_main(h, target, eps, sp, profile=DESK):
    """cond_test_known's Main branch as one compare call per witness."""
    eps1, eps2, eps3, eps4 = eps / 10.0, eps / 2.0, eps / 48.0, eps / 6.0
    k = sp.i_star - 1
    full = QuerySet.full()
    low_prefix = QuerySet.explicit(target.prefix_labels(k))
    reject = False
    # Gate: the mass below the split must look right.
    m_gate = math.ceil(profile["main_gate_c"] / eps**2)
    gate = h.draw_subset_count(full, low_prefix, m_gate) / m_gate
    if not (eps1 / 2.0 <= gate <= 2.5 * eps1):
        reject = True
    ell = math.ceil(profile["main_l_c"] / eps)
    h_count = math.ceil(profile["main_h_c"] / eps)
    m_recheck = math.ceil(profile["main_recheck_c"] * math.log2(4.0 / eps) / eps)
    witness_delta = 1.0 / (10.0 * ell * h_count)
    witness_m = compare_budget(eps4 / 8.0, 4.0, witness_delta, profile)
    drawn = h.draw_many(full, ell)
    for label in drawn:
        label = int(label)
        j = int(target.position_of[label - 1])
        if j <= k:
            # Oblivious padding: a below-split point burns the same
            # budget the above-split checks would have used.
            h.burn(full, m_recheck + h_count * witness_m)
            continue
        # Re-check the target prefix mass up to this point.
        up_to_j = QuerySet.explicit(target.prefix_labels(j))
        est = h.draw_subset_count(full, up_to_j, m_recheck) / m_recheck
        star = target.prefix_mass(j)
        if not ((1.0 - eps3) * star <= est <= (1.0 + eps3) * star):
            reject = True
        wj = target.weight_at(j)
        if wj >= eps1:
            # The whole prefix below j is a single wide witness.
            try:
                low, high, rho = compare(
                    h,
                    QuerySet.explicit([label]),
                    QuerySet.explicit(target.prefix_labels(j - 1)),
                    eps2 / 16.0,
                    2.0 / eps1,
                    1.0 / (10.0 * ell),
                    profile,
                )
            except ZeroMassSet:
                reject = True
                continue
            ratio_star = target.prefix_mass(j - 1) / wj
            if low or high or not (
                    (1.0 - eps2 / 8.0) * ratio_star
                    <= rho
                    <= (1.0 + eps2 / 8.0) * ratio_star):
                reject = True
            continue
        chain = target.witness_chain(wj)
        picks = h.rng.integers(0, int(chain.depth[j - 1]), size=h_count)
        los, his = chain.resolve(j, picks)
        for lo, hi in zip(los.tolist(), his.tolist()):
            wit = QuerySet.explicit(target.interval_labels(lo, hi))
            try:
                low, high, rho = compare(
                    h,
                    QuerySet.explicit([label]),
                    wit,
                    eps4 / 8.0,
                    4.0,
                    witness_delta,
                    profile,
                )
            except ZeroMassSet:
                reject = True
                continue
            ratio_star = (target.prefix_mass(hi) - target.prefix_mass(lo - 1)) / wj
            if low or high or not (
                    (1.0 - eps4 / 4.0) * ratio_star
                    <= rho
                    <= (1.0 + eps4 / 4.0) * ratio_star):
                reject = True
    return "Reject" if reject else "Accept"


def reference_cond_test_known(h, target, eps, profile=DESK):
    sp = target.split(eps / 10.0)
    if sp.heavy:
        return reference_test_known_heavy(h, target, sp, cond_schedule(target.n, eps, profile))
    return reference_test_known_main(h, target, eps, sp, profile)


def reference_ratio_in_window(out, alpha, theta):
    """Whether a compare outcome lands inside the closed window
    [1/(1+alpha+theta/2), 1+alpha+theta/2]."""
    low, high, rho = out
    if low or high:
        return False
    hi = 1.0 + alpha + theta / 2.0
    return 1.0 / hi <= rho <= hi


def reference_estimate_neighborhood(h, x, kappa, beta, eta, delta, profile,
                                    sample_cap, eta_floor, delta_floor):
    """estimate_neighborhood as one compare_points call per distinct
    sampled point."""
    theta = kappa * eta * beta * delta / 64.0
    r = int(round(kappa / theta))
    i = int(h.rng.integers(1, r))
    alpha = kappa + i * theta
    size = math.ceil(profile["en_sample_c"] * math.log(4.0 / delta) / (beta * eta**2))
    size = int(min(size, sample_cap))
    pts = h.draw_many(QuerySet.full(), size)
    uniq, counts = np.unique(pts, return_counts=True)
    c_eta = max(theta / 4.0, eta_floor)
    c_delta = max(delta / (4.0 * size), delta_floor)
    m = compare_budget(c_eta, 4.0, c_delta, profile)
    inside = 0
    for y, mult in zip(uniq, counts):
        y = int(y)
        if y == x:
            # Ratio exactly 1, always inside the window.
            inside += int(mult)
            continue
        out = compare_points(h, x, y, m, 4.0)
        if reference_ratio_in_window(out, alpha, theta):
            inside += int(mult)
    return NeighborhoodEstimate(inside / size, alpha, theta)


def reference_find_reference(h, kappa, profile=DESK):
    """find_reference as one compare_points call per uniform point."""
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
        en = reference_estimate_neighborhood(
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
        m = compare_budget(c_eta, 4.0, c_delta, profile)
        ys = h.rng.integers(1, n + 1, size=y_size)
        inside = 0
        for y in ys:
            y = int(y)
            if y == x:
                inside += 1
                continue
            # The pair always has mass: x was drawn from D.
            out = compare_points(h, x, y, m, 4.0)
            if reference_ratio_in_window(out, en.alpha, en.theta):
                inside += 1
        mu_hat = inside / y_size
        if mu_hat < mu_gate:
            continue
        d_hat = en.w_hat / (mu_hat * n)
        if kappa / (4.0 * n) <= d_hat <= 2.0 / (kappa * n):
            return ReferencePoint(x, d_hat, en.w_hat, mu_hat, en.alpha)
    return None


def reference_estimate_distance_to_uniformity(h, eps, profile=DESK):
    """estimate_distance_to_uniformity as one compare_points call per
    uniform point."""
    n = h.dist.n
    kappa = eps / 8.0
    ref = reference_find_reference(h, kappa, profile)
    if ref is None:
        return 1.0
    x, d_hat = ref.point, ref.d_hat
    s = math.ceil(profile["dist_s_c"] / eps**2)
    K = max(1.0, 2.0 / (n * d_hat), 4.0 * n * d_hat / eps)
    delta = 1.0 / (10.0 * s)
    m = compare_budget(eps / 2.0, K, delta, profile)
    ys = h.rng.integers(1, n + 1, size=s)
    total = 0.0
    for y in ys:
        y = int(y)
        if y == x:
            rho = 1.0
        else:
            low, high, rho = compare_points(h, x, y, m, K)
            if high:
                continue  # shortfall 0
            if low:
                total += 1.0
                continue
        val = rho * d_hat  # estimate of D(y)
        if val >= 1.0 / n:
            continue
        if val <= eps / (4.0 * n):
            total += 1.0
        else:
            total += 1.0 - n * val
    return min(max(total / s, 0.0), 1.0)


def reference_pcond_test_equality(h1, h2, eps, profile=DESK):
    """pcond_test_equality as two compare_points calls, one per oracle,
    for each (reference, pooled point) pair."""
    n = h1.dist.n
    et = eps / 100.0
    t = math.ceil(profile["eq_t_c"] * math.log2(2.0 * n) / eps**2)
    s1 = math.ceil(profile["eq_s1_c"] * t / eps**2)
    s2 = math.ceil(profile["eq_s2_c"] * t * math.log2(t + 1.0) / eps**3)
    full = QuerySet.full()
    refs = h1.draw_many(full, t)
    sample1 = h1.draw_many(full, s1)
    sample2 = h2.draw_many(full, s2)
    pooled = np.concatenate((sample1, sample2))
    uniq = np.unique(pooled)
    kappa, en_eta, beta, en_delta = et, et / 8.0, et / (2.0 * t), 1.0 / (100.0 * t)
    theta = kappa * en_eta * beta * en_delta / 64.0
    c_eta = max(theta / 4.0, profile["eq_compare_eta_floor"])
    c_delta = max(1.0 / (200.0 * t * (s1 + s2)), profile["eq_compare_delta_floor"])
    m = compare_budget(c_eta, 4.0, c_delta, profile)
    en_sched = neighborhood_schedule(
        kappa, beta, en_eta, en_delta, profile["eq_en_sample_cap"],
        profile["eq_compare_eta_floor"], profile["eq_compare_delta_floor"], profile)
    for r in refs:
        r = int(r)
        en = estimate_neighborhood(h1, r, en_sched)
        w1, alpha = en.w_hat, en.alpha
        rho1 = {}
        rho2 = {}
        for i in uniq:
            i = int(i)
            if i == r:
                rho1[i] = 1.0
                rho2[i] = 1.0
                continue
            try:
                o1 = compare_points(h1, r, i, m, 4.0)
                o2 = compare_points(h2, r, i, m, 4.0)
            except ZeroMassSet:
                # One side gives the pair positive mass (both points
                # were sampled somewhere), the other gives it none.
                return "Reject"
            # None stands for a Low or High outcome.
            rho1[i] = None if o1[0] or o1[1] else o1[2]
            rho2[i] = None if o2[0] or o2[1] else o2[2]
        inner = 1.0 + alpha + theta / 2.0
        in1 = {
            i: isinstance(v, float) and 1.0 / inner <= v <= inner
            for i, v in rho1.items()
        }
        w2 = sum(in1[int(i)] for i in sample2) / s2
        # Neighborhood weights must agree across the two distributions.
        if w1 <= 0.75 * et / t:
            if w2 > 1.5 * et / t:
                return "Reject"
        else:
            if not ((1.0 - et / 2.0) * w1 <= w2 <= (1.0 + et / 2.0) * w1):
                return "Reject"
        # Pointwise: a ratio close to the window on one side must stay
        # near it on the other.
        tight = 1.0 + alpha + et / 2.0
        loose = 1.0 + alpha + 1.5 * et
        for i in uniq:
            i = int(i)
            v1, v2 = rho1[i], rho2[i]
            if isinstance(v1, float) and 1.0 / tight <= v1 <= tight:
                if not (isinstance(v2, float) and 1.0 / loose <= v2 <= loose):
                    return "Reject"
    return "Accept"


def reference_approx_eval(h, i_star, budget):
    """approx_eval as it drew every round itself, with the domain's
    member array built before round one's check."""
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


def reference_eval_test_equality_once(h1, h2, sched):
    """_eval_test_equality_once as approx_eval on h1, then on h2, point
    by point."""
    m, budget, (lo_factor, hi_factor) = sched
    full = QuerySet.full()
    pts = np.concatenate((h1.draw_many(full, m), h2.draw_many(full, m)))
    for x in pts:
        x = int(x)
        try:
            r1 = reference_approx_eval(h1, x, budget)
            r2 = reference_approx_eval(h2, x, budget)
        except EvalFailed:
            return "Reject"
        if r1 is None or r2 is None or not (lo_factor * r2 <= r1 <= hi_factor * r2):
            return "Reject"
    return "Accept"


def scalar_counts(h, shape, sets, m, part=slice(None)):
    """draw_subset_count on each (set, subset) of a batch in
    draw_subset_counts' encoding, or of the slice part of it, set by set;
    -1 on a zero-mass set. A union {x} ∪ W is built as compare builds it."""
    if shape == PAIR:
        x, ys = sets
        queries = [(QuerySet.pair(a, b), QuerySet.explicit([b])) for a, b in
                   zip(np.broadcast_to(x, np.shape(ys)).tolist(), np.asarray(ys).tolist())]
    elif shape == INTERVAL:
        queries = [(QuerySet.interval(a, b), QuerySet.interval(sa, sb))
                   for a, b, sa, sb in zip(*(np.asarray(c).tolist() for c in sets))]
    else:
        x, members, sizes = sets
        wits = [QuerySet.explicit(w) for w in np.split(members, np.cumsum(sizes)[:-1])]
        queries = [(ref_union(QuerySet.explicit([x]), w, h.dist.n), w) for w in wits]
    out = []
    for s, sub in queries[part]:
        try:
            out.append(h.draw_subset_count(s, sub, m))
        except ZeroMassSet:
            out.append(-1)
    return out


def recording_cuts(h):
    """h, its draw_subset_counts wrapped to record, in h.cuts, each batch
    that stops part way as (shape, sets, m, the number of sets kept)."""
    kernel, h.cuts = h.draw_subset_counts, []

    def recorded(shape, sets, m, reached=None):
        hits = kernel(shape, sets, m, reached)
        if hits.size < len(sets[-1]):  # ys, sub_hi or sizes: one per set
            h.cuts.append((shape, sets, m, hits.size))
        return hits

    h.draw_subset_counts = recorded
    return h


def twins(d, model, seed, discipline=PERMISSIVE):
    """Two handles seeded alike: the first for the batched code, recording
    its cuts, the second for the scalar loop."""
    return (recording_cuts(OracleHandle(d, model=model, seed=seed, discipline=discipline)),
            OracleHandle(d, model=model, seed=seed, discipline=discipline))


def assert_same_state(h1, h2):
    """The same ledger and returned points, and the same generator once
    h2, whose loop stopped where each of h1's batches in h1.cuts did,
    has drawn the rest of each batch set by set, uncharged: a batched
    call draws every set it is given, and charges only those before the
    stop."""
    assert h1.ledger.as_dict() == h2.ledger.as_dict()
    assert h1.returned_points == h2.returned_points
    ledger = h2.ledger.copy()
    for shape, sets, m, kept in getattr(h1, "cuts", ()):
        scalar_counts(h2, shape, sets, m, slice(kept, None))
    h1.cuts, h2.ledger = [], ledger
    assert h1.rng.bit_generator.state == h2.rng.bit_generator.state


ZERO_HALF = make_distribution([1.0] * 32 + [0.0] * 32)


# The kernel ----------------------------------------------------------------


class RecordingRng:
    """A generator that records every p it draws a binomial with."""

    def __init__(self, rng):
        self.rng = rng
        self.ps = []

    def binomial(self, n, p):
        self.ps.extend(np.atleast_1d(p).tolist())
        return self.rng.binomial(n, p)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def recording_twins(d, model, seed, discipline=PERMISSIVE):
    h1, h2 = twins(d, model, seed, discipline)
    h1.rng, h2.rng = RecordingRng(h1.rng), RecordingRng(h2.rng)
    return h1, h2


def assert_same_draws(h1, h2):
    """assert_same_state, and every binomial drawn with bitwise the same p."""
    assert_same_state(h1, h2)
    assert h1.rng.ps == h2.rng.ps


def union_args(sets):
    return np.concatenate(sets), [len(w) for w in sets]


def random_sets(rng, n, x, k, max_size):
    """k sets of random sizes up to max_size, each strictly increasing
    and without x."""
    others = np.setdiff1d(np.arange(1, n + 1), [x])
    return [np.sort(rng.choice(others, size=int(rng.integers(1, max_size + 1)),
                               replace=False)) for _ in range(k)]


class TestUnionKernel:
    @pytest.mark.parametrize("name, d, max_size", [
        ("uniform_4096_points", uniform(2**12), 1),
        ("staircase_sets", gen_staircase(2, 4), 40),
        ("mixed", gen_half_split(300, 0.5), 3),
        ("wide_sets", make_distribution(np.arange(1.0, 601.0) ** 2), 300),
    ])
    def test_matches_scalar_calls(self, name, d, max_size):
        rng = np.random.default_rng(len(name))
        for seed in range(4):
            x = int(rng.integers(1, d.n + 1))
            sets = random_sets(rng, d.n, x, 24, max_size)
            h1, h2 = recording_twins(d, COND, seed)
            batch = (x, *union_args(sets))
            got = h1.draw_subset_counts(EXPLICIT, batch, 7919)
            assert got.tolist() == scalar_counts(h2, EXPLICIT, batch, 7919)
            assert_same_draws(h1, h2)
        sizes = {len(w) for w in sets}
        assert (sizes == {1}) == (max_size == 1)
        if name == "mixed":
            assert 1 in sizes and len(sizes) > 1

    def test_union_summed_below_its_subset_draws_with_p_one(self):
        """A zero-weight x can shift numpy's summation blocks so that the
        union's float mass falls below its subset's; p is then 1."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = rng.random(int(rng.integers(9, 200))) ** 3
            x = int(rng.integers(1, w.size + 1))
            w[x - 1] = 0.0
            d = make_distribution(w)
            rest = np.delete(np.arange(1, d.n + 1), x - 1)
            union = d.mass(QuerySet.explicit(np.arange(1, d.n + 1)))
            sub = d.mass(QuerySet.explicit(rest))
            if union < sub:
                break
        # Found by the rule the kernel sums with, before anything is drawn.
        assert union < sub
        h1, h2 = recording_twins(d, COND, 3)
        batch = (x, *union_args([rest, rest[:3]]))
        got = h1.draw_subset_counts(EXPLICIT, batch, 500)
        assert got.tolist()[0] == 500
        assert got.tolist() == scalar_counts(h2, EXPLICIT, batch, 500)
        assert_same_draws(h1, h2)


@given(st.integers(0, 2**32), st.lists(st.tuples(
    st.one_of(st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 130, 257]),
              st.integers(1, 257)),
    st.sampled_from(["first", "middle", "last"])), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_union_sums_by_width_are_the_per_set_sums(seed, shapes):
    """The kernel's two reduceat calls match Distribution.mass of each
    W_i and of its union bit for bit, at any width from 1 to 257, most
    often around numpy's unroll of 8 and its pairwise block of 128, with
    x before, inside and after W_i."""
    rng = np.random.default_rng(seed)
    d = make_distribution(rng.random(700) ** 3)
    x = int(rng.integers(300, 401))
    sets = []
    for size, where in shapes:
        below = {"first": 0, "middle": size // 2, "last": size}[where]
        sets.append(np.concatenate((
            np.sort(rng.choice(np.arange(1, x), size=below, replace=False)),
            np.sort(rng.choice(np.arange(x + 1, 701), size=size - below, replace=False)))))
    h = OracleHandle(d, model=COND, seed=seed, discipline=PERMISSIVE)
    seen = []
    inner = Distribution.set_masses

    def spy(self, members, starts):
        out = inner(self, members, starts)
        seen.append(out.tolist())
        return out

    with mock.patch.object(Distribution, "set_masses", spy):
        h.draw_subset_counts(EXPLICIT, (x, *union_args(sets)), 100)
    unions = [QuerySet.explicit(np.sort(np.append(w, x))) for w in sets]
    # A batch of one-point sets only takes the pair arithmetic.
    assert seen == ([[d.mass(u) for u in unions],
                     [d.mass(QuerySet.explicit(w)) for w in sets]]
                    if max(map(len, sets)) > 1 else [])


class Batch(NamedTuple):
    """One draw_subset_counts call, on a handle made from the other
    fields that has drawn three points from the full domain."""
    weights: list
    model: str
    discipline: str
    seed: int
    shape: str
    sets: tuple         # the batch in draw_subset_counts' encoding
    m: int
    cut: int | None     # what reached returns; None for no reached


def prepared(weights, model, discipline, seed):
    """A handle that has drawn three points from the full domain."""
    h = OracleHandle(make_distribution(weights), model=model, seed=seed, discipline=discipline)
    h.draw_many(QuerySet.full(), 3)
    return h


@st.composite
def batches(draw, n=24):
    """A batch of any shape under each model that takes it: pairs under
    PCOND or COND, intervals under ICOND or COND, and unions under COND,
    or under PCOND when every set is one point. Half the weights are
    zero, so zero-mass sets come up. Under STRICT each set holds a
    returned point: x does, or else each y, interval or union's set does,
    and a pair of two given points holds one on either side."""
    w = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 3.0]), min_size=n,
                      max_size=n).filter(any))
    shape = draw(st.sampled_from([PAIR, INTERVAL, EXPLICIT]))
    model = draw(st.sampled_from([COND, ICOND if shape == INTERVAL else PCOND]))
    discipline = draw(st.sampled_from([STRICT, PERMISSIVE]))
    seed = draw(st.integers(0, 2**32))
    seen = sorted(prepared(w, model, discipline, seed).returned_points)
    strict = discipline == STRICT
    anywhere = st.integers(1, n)
    anchor = st.sampled_from(seen) if strict else anywhere

    def other_than(x):
        return anywhere.filter(lambda y: y != x)

    k = draw(st.integers(shape == EXPLICIT, 8))
    on_x = not strict or draw(st.booleans())
    x = draw(anchor if on_x else anywhere.filter(lambda p: p not in seen))
    if shape == PAIR and draw(st.booleans()):
        sets = x, [draw(other_than(x) if on_x else anchor) for _ in range(k)]
    elif shape == PAIR:
        pairs = [(a, draw(other_than(a))) for a in [draw(anchor) for _ in range(k)]]
        pairs = [p[::-1] if draw(st.booleans()) else p for p in pairs]
        sets = np.array([a for a, _ in pairs], dtype=np.int64), [b for _, b in pairs]
    elif shape == INTERVAL:
        cols = []
        for _ in range(k):
            s = draw(anchor)
            lo, hi = draw(st.integers(1, s)), draw(st.integers(s, n))
            sub_lo = draw(st.integers(lo, hi))
            cols.append((lo, hi, sub_lo, draw(st.integers(sub_lo, hi))))
        sets = tuple([c[i] for c in cols] for i in range(4))
    else:
        width = 1 if model == PCOND else draw(st.sampled_from([1, 6]))
        wits = []
        for _ in range(k):
            held = set() if on_x else {draw(anchor)}
            wits.append(sorted(held | draw(st.sets(other_than(x), min_size=1 - len(held),
                                                   max_size=width - len(held)))))
        sets = (x, *union_args(wits))
    m = draw(st.sampled_from([0, 1, 37, 1000]))
    return Batch(w, model, discipline, seed, shape, sets, m,
                 draw(st.none() | st.integers(0, k)))


# Points 13..24 weigh nothing.
HALF_DEAD = [1.0] * 12 + [0.0] * 12


@given(batches())
@example(Batch(HALF_DEAD, PCOND, PERMISSIVE, 0, PAIR, (3, []), 10, None))
@example(Batch(HALF_DEAD, PCOND, PERMISSIVE, 0, PAIR,
               (np.empty(0, dtype=np.int64), []), 10, 0))
@example(Batch(HALF_DEAD, ICOND, PERMISSIVE, 0, INTERVAL, ([], [], [], []), 10, None))
# Pair 3 has zero mass; the cut after pair 4 charges the three live
# pairs before it, and the live pair after it is drawn too.
@example(Batch(HALF_DEAD, PCOND, PERMISSIVE, 4, PAIR,
               (np.array([1, 2, 14, 4, 5]), [9, 3, 20, 8, 6]), 1000, 4))
# Seed 0's three draws return 1, 7 and 16: each pair holds one, on
# either side.
@example(Batch([1.0] * 24, PCOND, STRICT, 0, PAIR, (np.array([1, 9, 16, 3]), [5, 7, 2, 16]),
               37, None))
@example(Batch([1.0] * 24, COND, PERMISSIVE, 7, INTERVAL,
               ([1, 3, 5, 2, 9], [5, 9, 20, 2, 24], [1, 4, 5, 2, 10], [2, 9, 12, 2, 10]),
               1000, 3))
# x weighs nothing, so the pairs with 14 and 15 do too.
@example(Batch(HALF_DEAD, PCOND, PERMISSIVE, 6, EXPLICIT, (13, [1, 14, 2, 15], [1] * 4),
               1000, None))
@settings(max_examples=200, deadline=None)
def test_batches_are_the_scalar_calls(b):
    """draw_subset_counts gives the counts, ledger and returned points of
    draw_subset_count called set by set up to the reached cut, and the
    generator state of those calls on every set."""
    h1, h2 = recording_cuts(prepared(*b[:4])), prepared(*b[:4])
    reached = None if b.cut is None else (lambda hits: b.cut)
    got = h1.draw_subset_counts(b.shape, b.sets, b.m, reached)
    assert got.tolist() == scalar_counts(h2, b.shape, b.sets, b.m, slice(b.cut))
    assert_same_state(h1, h2)


# Refusals ------------------------------------------------------------------


def kernel(shape, *sets):
    """draw_subset_counts on the batch sets."""
    return lambda h: h.draw_subset_counts(shape, sets, 10)


def unions(x, sets):
    return kernel(EXPLICIT, x, *union_args(sets))


def rows(name, model, discipline, setup, error, *calls):
    """The table rows of the calls, which raise error on the handle of
    model, discipline and setup."""
    return [pytest.param(model, discipline, setup, call, error, id=f"{name}-{i}")
            for i, call in enumerate(calls)]


# Setups: a distribution and the full-domain draws made before the call.
U8, U16, U64 = ((uniform(n), 0) for n in (8, 16, 64))

REFUSALS = [
    *rows("pair-not-two-points", PCOND, PERMISSIVE, U64, SetsNotDisjoint,
          kernel(PAIR, np.array([1, 3]), [2, 3]), kernel(PAIR, 3, [1, 3])),
    *rows("pair-outside", PCOND, PERMISSIVE, U64, BadQuerySet,
          kernel(PAIR, np.array([1, 0]), [2, 4]), kernel(PAIR, 0, [1, 4]),
          kernel(PAIR, np.array([1, 3]), [2, 65]), kernel(PAIR, 3, [1, 65]),
          kernel(PAIR, np.array([1, 65]), [2, 3]), kernel(PAIR, 65, [1, 3]),
          kernel(PAIR, np.array([1, 2]), [3, 4, 5])),    # x not one per pair
    # Two or three faults at once: shape, then domain, then distinct
    # points, then discipline.
    *rows("pair-order-shape", ICOND, STRICT, U64, IllegalShapeForModel,
          kernel(PAIR, 5, [5, 65, 6]), kernel(PAIR, np.full(3, 5), [5, 65, 6])),
    *rows("pair-order-domain", PCOND, STRICT, U64, BadQuerySet,
          kernel(PAIR, 5, [5, 65, 6]), kernel(PAIR, np.full(3, 5), [5, 65, 6])),
    *rows("pair-order-distinct", PCOND, STRICT, U64, SetsNotDisjoint,
          kernel(PAIR, 5, [5, 64, 6]), kernel(PAIR, np.full(3, 5), [5, 64, 6])),
    *rows("pair-order-discipline", PCOND, STRICT, U64, DisciplineViolation,
          kernel(PAIR, 5, [4, 64, 6]), kernel(PAIR, np.full(3, 5), [4, 64, 6])),
    # Seed 1's six draws return 10, 20, 28, 33 and 61: the pair {1, 2}
    # holds none.
    *rows("pair-untouched", PCOND, STRICT, (uniform(64), 6), DisciplineViolation,
          kernel(PAIR, np.array([10, 1]), [3, 2]), kernel(PAIR, 1, [10, 2])),
    *rows("interval-outside", ICOND, PERMISSIVE, U16, BadQuerySet,
          kernel(INTERVAL, [2], [8], [1], [4]),     # subset starts below the interval
          kernel(INTERVAL, [2], [8], [3], [9]),     # subset ends above it
          kernel(INTERVAL, [2], [8], [5], [4]),     # empty subset
          kernel(INTERVAL, [8], [2], [8], [8]),     # empty interval
          kernel(INTERVAL, [2], [17], [3], [4])),   # interval above the domain
    *rows("interval-order-shape", PCOND, STRICT, U16, IllegalShapeForModel,
          kernel(INTERVAL, [2], [17], [3], [4])),
    *rows("interval-order-domain", ICOND, STRICT, U16, BadQuerySet,
          kernel(INTERVAL, [2], [17], [3], [4])),
    *rows("interval-untouched", ICOND, STRICT, U16, DisciplineViolation,
          kernel(INTERVAL, [2], [8], [3], [4])),
    *rows("union-x-inside", COND, PERMISSIVE, U64, SetsNotDisjoint,
          unions(5, [[1], [5]]), unions(5, [[1, 2], [3, 5, 9]])),
    *rows("union-bad-set", COND, PERMISSIVE, U64, BadQuerySet,
          unions(5, [[1, 2], [9, 5]]),              # not increasing
          unions(5, [[1, 2], [9, 9]]),
          unions(5, [[2, 1], [3]]),
          unions(5, [[0, 2]]),                      # outside the domain
          unions(5, [[7, 65]]),
          unions(65, [[1]]),
          unions(0, [[1]]),
          kernel(EXPLICIT, 5, [], []),              # no sets
          # Sizes that do not sum to the members; [2, 1, 1] has one size
          # per member but sums past them.
          *(kernel(EXPLICIT, 5, [1, 2, 3], sizes)
            for sizes in ([1, 1], [2, 0, 1], [3, 1], [2, 1, 1], [1, 1, 1, 1])),
          # Two faults at once, where the one draw_subset_counts' docstring
          # lists first is raised: outside the domain and not increasing;
          # either, with x inside the set.
          kernel(EXPLICIT, 5, [70, 3], [2]), kernel(EXPLICIT, 5, [3, 70, 1], [1, 2]),
          kernel(EXPLICIT, 5, [5, 70], [2]), kernel(EXPLICIT, 5, [9, 5], [2])),
    # x inside a set, and a set with no returned point.
    *rows("union-order-distinct", COND, STRICT, U64, SetsNotDisjoint,
          kernel(EXPLICIT, 5, [4, 5, 6, 60, 61], [3, 2])),
    # Shapes the model does not take; the last two under PCOND are a wide
    # set with sizes that do not sum to the members, and the last under
    # ICOND no sets at all.
    *rows("shape-pcond", PCOND, PERMISSIVE, U8, IllegalShapeForModel,
          kernel(INTERVAL, [1], [4], [1], [2]), kernel(EXPLICIT, 1, [2, 3, 4], [1, 2]),
          kernel(EXPLICIT, 5, [2, 3, 4], [3, 1]), kernel(EXPLICIT, 5, [2, 3, 4], [0, 3])),
    *rows("shape-icond", ICOND, PERMISSIVE, U8, IllegalShapeForModel,
          kernel(PAIR, np.array([1]), [2]), kernel(EXPLICIT, 1, [2], [1]),
          kernel(EXPLICIT, 5, [], [])),
    # Sizes that are no integers, from which no shape can be read.
    *rows("union-order-sizes", PCOND, PERMISSIVE, U64, BadQuerySet,
          kernel(EXPLICIT, 5, [2, 3, 4], [1.0, 2.0])),
    # As above, x = 1 and the last set hold no returned point.
    *rows("union-untouched", COND, STRICT, (uniform(64), 6), DisciplineViolation,
          unions(1, [[10], [2, 20], [3, 4, 28], [5, 6]]), unions(1, [[10], [5]])),
    # Arrays that are not 1-D integers of one length, an x no integer, a
    # point past int64, and a shape with no batch encoding.
    *rows("malformed-pairs", COND, PERMISSIVE, U64, BadQuerySet,
          kernel(PAIR, 3, [1.5, 2]),                # float points were truncated and drawn
          kernel(PAIR, 3.9, [5, 6]),                # so was a float x
          kernel(PAIR, True, [5, 6]),
          kernel(PAIR, 3, [True, False]),
          kernel(PAIR, 3, [[5, 6]]),                # 2-D points gave a 2-D count array
          kernel(PAIR, np.array([[3]]), [5]),
          kernel(PAIR, np.array([3.0]), [5]),
          kernel(PAIR, np.array([3, 4]), [5]),      # x not one per pair
          kernel(PAIR, 3, [2**70]),                 # past int64: a bare OverflowError
          kernel(PAIR, 3, [2**63]),                 # past int64, held as uint64
          kernel(PAIR, 2**70, [5])),
    *rows("malformed-intervals", COND, PERMISSIVE, U64, BadQuerySet,
          kernel(INTERVAL, [1, 2], [4], [2], [3]),  # one hi was broadcast over two
          kernel(INTERVAL, [1], [4], [2], [3, 3]),
          kernel(INTERVAL, [1.0], [4], [2], [3]),
          kernel(INTERVAL, [[1]], [[4]], [[2]], [[3]]),
          kernel(INTERVAL, [1], [2**70], [2], [3])),
    *rows("malformed-unions", COND, PERMISSIVE, U64, BadQuerySet,
          kernel(EXPLICIT, 3, [5, 6.5], [2]),       # a float member was truncated and drawn
          kernel(EXPLICIT, 3, [5, 6], [2.0]),
          kernel(EXPLICIT, 3.5, [5, 6], [2]),
          kernel(EXPLICIT, 3.5, [5, 6], [1, 1]),
          kernel(EXPLICIT, np.array([3]), [5, 6], [2]),   # one x per union is not taken
          kernel(EXPLICIT, np.array([3]), [5], [1]),
          kernel(EXPLICIT, 3, [[5, 6]], [2]),
          kernel(EXPLICIT, 3, [[5], [6]], [1, 1]),
          kernel(EXPLICIT, 3, [5], [[1]]),
          kernel(EXPLICIT, 3, [5, 2**70], [2]),
          kernel(EXPLICIT, 2**70, [5], [1])),
    *rows("malformed-shape", COND, PERMISSIVE, U64, BadQuerySet,
          kernel("full", 3, [5]), kernel("points", 3, [5])),
    # compare_points, which raises each before its draw_subset_count draws.
    *rows("compare-points-distinct", COND, PERMISSIVE, U8, SetsNotDisjoint,
          lambda h: compare_points(h, 2, 2, 100, 2.0),
          lambda h: compare_points(h, 2, 2, 0, 2.0)),   # distinct points before m
    *rows("compare-points-outside", COND, PERMISSIVE, U8, BadQuerySet,
          lambda h: compare_points(h, 0, 2, 100, 2.0),
          lambda h: compare_points(h, 2, 0, 100, 2.0),
          lambda h: compare_points(h, 9, 2, 100, 2.0)),
    *rows("compare-points-outside-pcond", PCOND, PERMISSIVE, U8, BadQuerySet,
          lambda h: compare_points(h, 2, 9, 100, 2.0)),
    *rows("compare-points-shape", ICOND, PERMISSIVE, U8, IllegalShapeForModel,
          lambda h: compare_points(h, 1, 2, 100, 2.0)),
    *rows("compare-points-untouched", PCOND, STRICT, U8, DisciplineViolation,
          lambda h: compare_points(h, 1, 2, 100, 2.0)),
    *rows("compare-points-zero-mass", PCOND, PERMISSIVE, (ZERO_HALF, 0), ZeroMassSet,
          lambda h: compare_points(h, 40, 50, 100, 2.0)),
    # A comparison of no draws would read hits / 0; compare_budget gives 0
    # draws for delta = 2. An m that is no integer is refused as before.
    *rows("compare-draws", PCOND, PERMISSIVE, U8, BadDrawCount,
          lambda h: compare_points(h, 1, 2, 0, 2.0),
          lambda h: compare_points(h, 1, 2, compare_budget(0.1, 2.0, 2.0), 2.0),
          lambda h: compare_points(h, 0, 2, 0, 2.0),    # m before the domain
          lambda h: compare_points(h, 1, 2, 2.5, 2.0),
          lambda h: compare_to_point(h, 1, [2, 3], 0, 2.0),
          lambda h: compare_to_point(h, 1, [2, 3], 2.5, 2.0)),
    *rows("descent-draws", ICOND, PERMISSIVE, U8, BadDrawCount,
          lambda h: binary_descent(h, [3], 0.1, 0),
          lambda h: binary_descent(h, [], 0.1, 0)),     # even with no walk
    # draw_counts, refused before its multinomial.
    *rows("counts-zero-mass", COND, PERMISSIVE, (ZERO_HALF, 0), ZeroMassSet,
          lambda h: h.draw_counts(QuerySet.interval(40, 50), 1000)),
    *rows("counts-untouched", COND, STRICT, (ZERO_HALF, 0), DisciplineViolation,
          lambda h: h.draw_counts(QuerySet.interval(1, 8), 1000)),
    # A given point outside S, or no point of 1..N.
    *rows("counts-given-outside", COND, PERMISSIVE, U8, BadQuerySet,
          lambda h: h.draw_counts(QuerySet.interval(2, 5), 10, given=(6, 0)),
          lambda h: h.draw_counts(QuerySet.explicit([1, 3]), 10, given=(2, 0)),
          lambda h: h.draw_counts(QuerySet.full(), 10, given=(9, 0)),
          lambda h: h.draw_counts(QuerySet.full(), 10, given=(0, 0)),
          lambda h: h.draw_counts(QuerySet.full(), 10, given=(2.0, 0))),
    # A given count outside 0..m, or no integer.
    *rows("counts-given-count", COND, PERMISSIVE, U8, BadDrawCount,
          lambda h: h.draw_counts(QuerySet.full(), 10, given=(2, -1)),
          lambda h: h.draw_counts(QuerySet.full(), 10, given=(2, 11)),
          lambda h: h.draw_counts(QuerySet.full(), 10, given=(2, 2.0)),
          lambda h: h.draw_counts(QuerySet.full(), 10, given=(2, True))),
    # A count a zero-weight point cannot have; one below m at the only
    # point of S with weight, 32 in 32..40.
    *rows("counts-given-zero-weight", COND, PERMISSIVE, (ZERO_HALF, 0), BadDrawCount,
          lambda h: h.draw_counts(QuerySet.full(), 10, given=(40, 1)),
          lambda h: h.draw_counts(QuerySet.interval(32, 40), 10, given=(33, 10)),
          lambda h: h.draw_counts(QuerySet.interval(32, 40), 10, given=(32, 9))),
]


@pytest.mark.parametrize("model, discipline, setup, call, error", REFUSALS)
def test_refused_before_anything_is_drawn(model, discipline, setup, call, error):
    """Each call raises its typed error before anything is drawn, charged
    or recorded: the ledger, the generator state and the returned points
    stay as the setup left them."""
    d, draws = setup
    h = OracleHandle(d, model=model, seed=1, discipline=discipline)
    h.draw_many(QuerySet.full(), draws)
    before = h.ledger.as_dict(), h.rng.bit_generator.state, set(h.returned_points)
    with pytest.raises(error):
        call(h)
    assert (h.ledger.as_dict(), h.rng.bit_generator.state, h.returned_points) == before


class TestClassify:
    @pytest.mark.parametrize("m, K", [(30, 2.0), (301, 4.0), (7, 0.1), (1, 2.0)])
    def test_matches_compare_thresholds(self, m, K):
        hits = np.arange(-1, m + 1)
        low, high, rho = classify(hits, m, K)
        for k, lo_k, hi_k, r in zip(hits.tolist(), low, high, rho):
            mu = k / m
            thr = (2.0 / 3.0) / (K + 1.0)
            assert lo_k == (mu < thr)
            assert hi_k == (not mu < thr and 1.0 - mu < thr)
            if lo_k or hi_k:
                assert math.isnan(r)
            else:
                assert r == mu / (1.0 - mu)

    def test_counts_above_two_to_the_53(self):
        # Here float(k) / float(m) rounds twice and misses k / m.
        m, k = 2819327710181577350, 1318948378032691662
        assert float(k) / float(m) != k / m
        _, _, rho = classify(np.array([k, m // 2]), m, 2.0)
        assert rho.tolist() == [(j / m) / (1.0 - j / m) for j in (k, m // 2)]


# The testers ----------------------------------------------------------------


PCOND_CASES = [
    ("uniform_50", uniform(50)),
    ("uniform_1000", uniform(1000)),
    ("half_split_100", gen_half_split(100, 0.5)),
    ("zero_half_64", ZERO_HALF),
    ("block_256", gen_block_profile(256, 4, 11, ["up_down", "down_up"] * 8, 0.25)),
]


class TestPcondUniformMatchesScalarLoop:
    @pytest.mark.parametrize("name, d", PCOND_CASES)
    def test_same_verdict_ledger_and_generator(self, name, d):
        verdicts = set()
        for seed in range(3):
            h1, h2 = twins(d, PCOND, seed)
            verdict = pcond_test_uniform(h1, 0.5)
            assert verdict == reference_pcond_test_uniform(h2, 0.5)
            assert_same_state(h1, h2)
            assert h1.ledger.total == query_budget(0.5)
            verdicts.add(verdict)
        assert verdicts == ({"Accept"} if name.startswith("uniform") else {"Reject"})


def finest_split_perturbed(n):
    """Uniform on every interval of the walk but the last level's pairs."""
    return make_distribution(np.tile([1.5, 0.5], n // 2))


def middle_blocks(n):
    """Blocks of n/8 points alternating heavy and light: the first two
    levels split evenly, the third does not."""
    return make_distribution(np.repeat(np.tile([1.6, 0.4], 4), n // 8))


DESCENT_CASES = [
    ("uniform_64", uniform(64)),
    ("uniform_100", uniform(100)),
    ("half_split_64", gen_half_split(64, 0.5)),
    ("block_64", gen_block_profile(64, 2, 3, ["up_down", "down_up"] * 2, 0.25)),
    ("middle_blocks_64", middle_blocks(64)),
    ("finest_split_64", finest_split_perturbed(64)),
    ("zero_half_64", ZERO_HALF),
]


def descent_budget(n):
    """binary_descent's (eta, m) in icond_test_uniform at eps = 0.5."""
    return interval.schedule(n, 0.5, DESK)[1:3]


class TestDescentMatchesScalarWalk:
    def test_one_point_at_a_time(self):
        """Values exactly, and the walk stops at the first, a middle and
        the last level in turn."""
        stops = set()
        for name, d in DESCENT_CASES:
            depth = (d.n - 1).bit_length()
            eta, m = descent_budget(d.n)
            for y in (1, 17, d.n // 2, d.n // 2 + 1, d.n):
                h1, h2 = twins(d, ICOND, y)
                got = binary_descent(h1, [y], eta, m)
                want = reference_binary_descent(h2, y, 0.5)
                assert_same_state(h1, h2)
                if want is None:
                    assert got is None
                    stops.add((h2.ledger.icond_count // m - 1) / (depth - 1))
                else:
                    assert got.tolist() == [want], (name, y)
        assert {0.0, 1.0} <= stops
        assert any(0.0 < s < 1.0 for s in stops)

    def test_no_points(self):
        h1, h2 = twins(uniform(64), ICOND, 0)
        assert binary_descent(h1, [], *descent_budget(64)).size == 0
        assert_same_state(h1, h2)

    @pytest.mark.parametrize("name, d", DESCENT_CASES)
    def test_several_points_in_order(self, name, d):
        rng = np.random.default_rng(len(name))
        ys = rng.integers(1, d.n + 1, size=6)
        h1, h2 = twins(d, ICOND, 4)
        got = binary_descent(h1, ys, *descent_budget(d.n))
        want = []
        for y in ys:
            v = reference_binary_descent(h2, int(y), 0.5)
            if v is None:
                want = None
                break
            want.append(v)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tolist() == want
        assert_same_state(h1, h2)

    def test_stop_on_a_value_out_of_bounds(self):
        """Walks whose every level passes but whose value falls below
        1/n stop the walks after their last level."""
        d = uniform(100)
        bounds = (1.0 / 100, 1.0)
        stopped = 0
        for seed in range(8):
            ys = np.random.default_rng(seed).integers(1, 101, size=2)
            h1, h2 = twins(d, ICOND, seed)
            got = binary_descent(h1, ys, *descent_budget(100), bounds=bounds)
            want = []
            for y in ys:
                v = reference_binary_descent(h2, int(y), 0.5)
                if v is None or not bounds[0] <= v <= bounds[1]:
                    want = None
                    break
                want.append(v)
            assert_same_state(h1, h2)
            if want is None:
                assert got is None
                stopped += 1
            else:
                assert got.tolist() == want
        assert 0 < stopped < 8

    @pytest.mark.parametrize("name, d", DESCENT_CASES)
    def test_icond_tester(self, name, d):
        for seed in range(3):
            h1, h2 = twins(d, ICOND, seed, STRICT)
            assert icond_test_uniform(h1, 0.5) == reference_icond_test_uniform(h2, 0.5)
            assert_same_state(h1, h2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name, d, verdict, calls", [
        ("U_65536", uniform(2**16), "Accept", 2),
        ("block_65536", rand_block_profile(2**16, 0.5, np.random.default_rng(90), x=6),
         "Reject", 1),
    ])
    def test_icond_kernel_calls(self, seed, name, d, verdict, calls):
        """The first walk alone, then the rest in one call, which a run
        that fails its first walk never makes."""
        h = OracleHandle(d, model=ICOND, seed=seed, discipline=STRICT)
        sizes = []
        kernel = h.draw_subset_counts

        def counted(shape, sets, *args, **kwargs):
            sizes.append(len(sets[0]))
            return kernel(shape, sets, *args, **kwargs)

        h.draw_subset_counts = counted
        assert icond_test_uniform(h, 0.5) == verdict
        assert sizes[:1] == [16] and len(sizes) == calls


def witness_dead(target):
    """The target with no mass below the split, where every witness
    lies: each witness comparison sees a zero-mass witness."""
    sp = target.split(0.05)
    w = target.dstar.weights.copy()
    w[target.prefix_labels(sp.i_star - 1) - 1] = 0.0
    return make_distribution(w)


def sparse_bad(n, bad, seed):
    """Uniform but for `bad` random points 10 % heavier: only the few
    witness comparisons that meet one of them fail."""
    w = np.ones(n)
    w[np.random.default_rng(seed).choice(n, size=bad, replace=False)] = 1.1
    return make_distribution(w)


STAIR = gen_staircase(2, 4)
KNOWN_CASES = [
    ("U_U_4096", uniform(2**12), uniform(2**12)),       # one-point witnesses
    ("stair_stair", STAIR, STAIR),                      # multi-point witnesses
    ("pert_stair", gen_staircase(2, 4, ["up_down"] * 4), STAIR),
    ("half_split_U_1024", gen_half_split(2**10, 0.5), uniform(2**10)),
    ("random_mixed", make_distribution(np.random.default_rng(4).random(300) ** 3),
     make_distribution(np.random.default_rng(4).random(300) ** 3)),
    ("witness_dead_stair", witness_dead(KnownTarget(STAIR)), STAIR),
    ("sparse_bad_U_4096", sparse_bad(2**12, 20, 1), uniform(2**12)),
    # Neighbours 1.2 % apart: inside the witness window of +-2.1 %.
    ("alternating_U_1024", make_distribution(np.tile([1.006, 0.994], 512)),
     uniform(2**10)),
]


class TestCondKnownMatchesScalarLoop:
    @pytest.mark.parametrize("name, d, t", KNOWN_CASES)
    def test_same_verdict_ledger_and_generator(self, name, d, t):
        target = KnownTarget(t)
        sp = target.split(0.05)
        assert not sp.heavy
        verdicts = set()
        for seed in range(3):
            h1, h2 = recording_twins(d, COND, seed, STRICT)
            verdict = _test_known_main(h1, target, sp, cond_schedule(target.n, 0.5, DESK))
            assert verdict == reference_test_known_main(h2, target, 0.5, sp, DESK)
            assert_same_draws(h1, h2)
            verdicts.add(verdict)
        if name in ("U_U_4096", "stair_stair", "alternating_U_1024"):
            assert verdicts == {"Accept"}
        if name in ("pert_stair", "half_split_U_1024", "witness_dead_stair"):
            assert verdicts == {"Reject"}

    def test_witness_shapes_of_the_cases(self):
        """The cases cover one-point witnesses and wide ones, up to sizes
        where numpy's pairwise summation works in blocks."""
        shapes = {}
        for name, _, t in KNOWN_CASES:
            target = KnownTarget(t)
            sp = target.split(0.05)
            sizes = set()
            for j in range(sp.i_star, target.n + 1):
                wj = target.weight_at(j)
                if wj < 0.05:
                    chain = target.witness_chain(wj)
                    los, his = chain.resolve(j, np.arange(chain.depth[j - 1]))
                    sizes.update((his - los + 1).tolist())
            shapes[name] = sizes
        # Uniform: one point each, two in the last interval of a chain.
        assert shapes["U_U_4096"] == {1, 2}
        assert {1, 8, 128} <= shapes["stair_stair"]
        # The staircase's heaviest points are compared against their whole
        # prefix, one wide witness each.
        stair = KnownTarget(STAIR)
        assert stair.weight_at(stair.n) >= 0.05
        assert 1 in shapes["random_mixed"] and max(shapes["random_mixed"]) > 64


def point_mass(n, w_rest):
    """Weight 1 on point 1 and w_rest elsewhere, before normalising."""
    w = np.full(n, w_rest)
    w[0] = 1.0
    return make_distribution(w)


DISTANCE_CASES = [
    ("uniform_256", uniform(256)),
    ("half_split_256", gen_half_split(256, 0.25)),
    # The right half has weight zero.
    ("half_split_256_eps_0.5", gen_half_split(256, 0.5)),
    # Ratios near the window edges, as in the pair_small_n benchmark.
    ("block_256", gen_block_profile(256, 4, 11, ["up_down", "down_up"] * 8, 0.25)),
    # Every candidate fails a gate: find_reference returns None.
    ("point_mass_256", point_mass(256, 1e-6)),
    # Three points too heavy to be the reference: at seed 1 the
    # estimator compares one of them and reads High.
    ("heavy_3_of_256", make_distribution(np.r_[np.full(3, 0.3), np.full(253, 0.1 / 253)])),
    # Most sampled points are the candidate itself.
    ("n_2", make_distribution([1.0, 3.0])),
]

# A smaller search, so that the scalar references stay quick on many
# instances: six candidates, 80 uniform points and 80 neighborhood draws.
SMALL_SEARCH = ConstantsProfile("desk", {"fr_x_cap": 6, "fr_y_cap": 80,
                                         "fr_en_sample_cap": 80})


class TestDistanceMatchesScalarLoops:
    @pytest.mark.parametrize("discipline", [STRICT, PERMISSIVE])
    @pytest.mark.parametrize("name, d", DISTANCE_CASES)
    def test_estimate_neighborhood(self, name, d, discipline):
        for seed, (kappa, beta, eta, delta) in enumerate(
                [(1 / 32, 1e-3, 1 / 32, 1e-3), (0.1, 0.05, 0.2, 0.01),
                 (0.25, 0.1, 0.25, 0.1)]):
            h1, h2 = recording_twins(d, PCOND, seed, discipline)
            x = int(h1.draw_many(QuerySet.full(), 1)[0])
            assert h2.draw_many(QuerySet.full(), 1)[0] == x
            # desk's find_reference cap and floors
            caps = (400, 0.02, 1e-4)
            got = estimate_neighborhood(
                h1, x, neighborhood_schedule(kappa, beta, eta, delta, *caps))
            assert got == reference_estimate_neighborhood(
                h2, x, kappa, beta, eta, delta, DESK, *caps)
            assert_same_draws(h1, h2)

    @pytest.mark.parametrize("discipline", [STRICT, PERMISSIVE])
    @pytest.mark.parametrize("name, d", DISTANCE_CASES)
    def test_find_reference(self, name, d, discipline):
        found = []
        for seed in range(2):
            h1, h2 = recording_twins(d, PCOND, seed, discipline)
            ref = find_reference(h1, distance.schedule(d.n, 0.25, DESK))
            assert ref == reference_find_reference(h2, 0.25 / 8.0)
            assert_same_draws(h1, h2)
            found.append(ref is not None)
        if name == "point_mass_256":
            assert found == [False, False]
        if name in ("uniform_256", "block_256"):
            assert all(found)

    @pytest.mark.parametrize("discipline", [STRICT, PERMISSIVE])
    @pytest.mark.parametrize("name, d", DISTANCE_CASES)
    def test_estimate_distance_to_uniformity(self, name, d, discipline):
        eps = 0.5 if name == "half_split_256_eps_0.5" else 0.25
        for seed in range(2):
            h1, h2 = recording_twins(d, PCOND, seed, discipline)
            got = estimate_distance_to_uniformity(h1, eps)
            assert got == reference_estimate_distance_to_uniformity(h2, eps)
            assert_same_draws(h1, h2)


def gap(n, a, b):
    """Uniform on 1..n except weight zero on a..b."""
    w = np.ones(n)
    w[a - 1:b] = 0.0
    return make_distribution(w)


def near_uniform(n, lift, seed):
    """Uniform on 1..n with about half the points lifted by the factor
    1 + lift."""
    w = np.ones(n)
    w[np.random.default_rng(seed).random(n) < 0.5] += lift
    return make_distribution(w)


# (name, D1, D2, verdicts at seeds 0..3). The Rejects' exits, read off
# an instrumented copy of the scalar loop at these seeds:
EQUALITY_CASES = [
    ("U_U_256", uniform(256), uniform(256), ["Accept"] * 4),
    # The right half of D2 has weight zero. Seeds 0 and 1 meet a
    # zero-mass pair after 82 live ones at the first reference; seeds
    # 2 and 3 reject pointwise.
    ("U_half_split_256", uniform(256), gen_half_split(256, 0.5), ["Reject"] * 4),
    # D2 is zero on 97..160. Seed 1 meets a zero-mass pair after 48
    # live ones, with live pairs after the gap; the others reject
    # pointwise.
    ("U_gap_256", uniform(256), gap(256, 97, 160), ["Reject"] * 4),
    # D1's right half has weight zero: every seed rejects on the
    # neighborhood weights.
    ("half_split_U_256", gen_half_split(256, 0.5), uniform(256), ["Reject"] * 4),
    # Ratios of 1.012 sit near the window edges: seeds 0 and 1 reject
    # pointwise at the second and eighth reference, seeds 2 and 3
    # accept after all nine.
    ("U_near_256", uniform(256), near_uniform(256, 0.012, 1),
     ["Reject", "Reject", "Accept", "Accept"]),
    # Equal, with ratios of 1.004 that fall inside or outside a
    # neighborhood window by its radius: seeds 2 and 3 reject on the
    # neighborhood weights at the eighth and ninth reference.
    ("near_near_256", near_uniform(256, 0.004, 1), near_uniform(256, 0.004, 1),
     ["Accept", "Accept", "Reject", "Reject"]),
    # Every pooled point is the reference: no pair is compared.
    ("U_U_1", uniform(1), uniform(1), ["Accept"] * 4),
]


def equality_twins(d1, d2, seed):
    """Two (h1, h2) pairs, seeded alike, one for each side."""
    a1, b1 = twins(d1, PCOND, seed)
    a2, b2 = twins(d2, PCOND, seed ^ harness._SECOND_STREAM)
    return (a1, a2), (b1, b2)


class TestPcondEqualityMatchesScalarLoop:
    @pytest.mark.parametrize("name, d1, d2, verdicts", EQUALITY_CASES)
    def test_same_verdict_ledgers_and_generators(self, name, d1, d2, verdicts):
        got = []
        for seed in range(len(verdicts)):
            (g1, g2), (r1, r2) = equality_twins(d1, d2, seed)
            verdict = pcond_test_equality(g1, g2, 0.5)
            assert verdict == reference_pcond_test_equality(r1, r2, 0.5)
            assert_same_state(g1, r1)
            assert_same_state(g2, r2)
            got.append(verdict)
        assert got == verdicts


@st.composite
def weights(draw, n=None):
    if n is None:
        n = draw(st.integers(2, 40))
    w = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 3.7]),
                      min_size=n, max_size=n))
    if not any(w):
        w[0] = 1.0
    return w


@st.composite
def weight_pairs(draw):
    """Two weight lists on one domain."""
    w = draw(weights())
    return w, draw(weights(len(w)))


@given(weights(), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_testers_match_scalar_loops_on_random_weights(w, seed):
    d = make_distribution(w)
    h1, h2 = twins(d, PCOND, seed)
    assert pcond_test_uniform(h1, 0.5) == reference_pcond_test_uniform(h2, 0.5)
    assert_same_state(h1, h2)
    h1, h2 = twins(d, ICOND, seed, STRICT)
    assert icond_test_uniform(h1, 0.5) == reference_icond_test_uniform(h2, 0.5)
    assert_same_state(h1, h2)


@given(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.0, 2.0, 3.7, 9.0]),
                min_size=20, max_size=120),
       st.integers(0, 2**32), st.booleans())
@settings(max_examples=30, deadline=None)
def test_cond_known_matches_scalar_loop_on_random_weights(w, seed, same):
    if sum(w) == 0:
        w[0] = 1.0
    t = make_distribution(w)
    d = t if same else make_distribution(w[::-1])
    target = KnownTarget(t)
    h1, h2 = twins(d, COND, seed, STRICT)
    assert cond_test_known(h1, target, 0.5) == reference_cond_test_known(h2, target, 0.5)
    assert_same_state(h1, h2)


def small_random(n, seed):
    rng = np.random.default_rng(seed)
    return make_distribution(rng.random(n) ** 2 + 1e-3)


# Uniform targets on 2..16 points and small random ones: at eps = 0.5
# the Heavy branch runs up to 9 points, the Main branch past it.
SMALL_TARGETS = ([uniform(n) for n in range(2, 17)]
                 + [small_random(n, seed) for n in range(2, 9) for seed in range(3)])


@pytest.mark.parametrize("t", SMALL_TARGETS)
def test_cond_known_matches_scalar_loop_on_small_targets(t):
    """Against itself and against uniform, each at seeds 0..4; the
    Heavy branch's arrays against its loop where the split is heavy."""
    target = KnownTarget(t)
    for d in (t, uniform(t.n)):
        for seed in range(5):
            h1, h2 = twins(d, COND, seed, STRICT)
            verdict = cond_test_known(h1, target, 0.5)
            assert verdict == reference_cond_test_known(h2, target, 0.5)
            assert_same_state(h1, h2)


def test_small_targets_reach_both_branches():
    heavy = [KnownTarget(t).split(0.05).heavy for t in SMALL_TARGETS]
    assert heavy.count(True) >= 10 and heavy.count(False) >= 10


@given(weights(), st.integers(0, 2**32), st.sampled_from([STRICT, PERMISSIVE]),
       st.sampled_from([0.25, 0.5]))
@settings(max_examples=40, deadline=None)
def test_distance_matches_scalar_loops_on_random_weights(w, seed, discipline, eps):
    d = make_distribution(w)
    h1, h2 = recording_twins(d, PCOND, seed, discipline)
    got = estimate_distance_to_uniformity(h1, eps, SMALL_SEARCH)
    assert got == reference_estimate_distance_to_uniformity(h2, eps, SMALL_SEARCH)
    assert_same_draws(h1, h2)


@given(weight_pairs(), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_pcond_equality_matches_scalar_loop_on_random_weights(pair, seed):
    (g1, g2), (r1, r2) = equality_twins(*map(make_distribution, pair), seed)
    assert pcond_test_equality(g1, g2, 0.5) == reference_pcond_test_equality(r1, r2, 0.5)
    assert_same_state(g1, r1)
    assert_same_state(g2, r2)


# eval_test_equality's approx_eval ------------------------------------------


def sparse_random(n, seed):
    """Random weights on 1..n, about a third of them zero."""
    rng = np.random.default_rng(seed)
    w = rng.random(n) ** 2
    w[rng.random(n) < 0.3] = 0.0
    return make_distribution(w)


COUNT_SETS = [QuerySet.full(), QuerySet.interval(5, 40),
              QuerySet.explicit([1, 2, 3, 10, 33, 34, 60])]


def heaviest(d, s):
    """The member of S with the most weight: a point round one can hit."""
    idx = s.members(d.n)
    return int(idx[np.argmax(d.weights[idx - 1])])


class TestDrawCountsGiven:
    """draw_counts(S, m, given=(x, c)) completes the observation whose
    count at x draw_subset_count(S, {x}, m) drew: approx_eval's round
    one."""

    @pytest.mark.parametrize("c", [0, 1, 500, 999])
    @pytest.mark.parametrize("s", COUNT_SETS, ids=["full", "interval", "explicit"])
    def test_rest_is_the_draw_on_s_without_x(self, c, s):
        """The other m - c draws are draw_counts(S without x, m - c),
        number for number, leaving the generator where that call leaves
        it, and nothing is charged."""
        d = sparse_random(64, 5)
        x = heaviest(d, s)
        h1, h2 = twins(d, COND, 9)
        h1.draw_counts(s, 1000)  # a call before, as in a running tester
        h2.draw_counts(s, 1000)
        ledger = h1.ledger.as_dict()
        idx, counts = h1.draw_counts(s, 1000, given=(x, c))
        others = s.members(d.n)
        rest_idx, rest = h2.draw_counts(QuerySet.explicit(others[others != x]), 1000 - c)
        at = idx == x
        assert counts[at].tolist() == [c] and counts.sum() == 1000
        assert idx[~at].tolist() == rest_idx.tolist()
        assert counts[~at].tolist() == rest.tolist()
        assert h1.ledger.as_dict() == ledger
        assert h1.returned_points == h2.returned_points | ({x} if c else set())
        assert h1.rng.bit_generator.state == h2.rng.bit_generator.state

    @pytest.mark.parametrize("s", COUNT_SETS, ids=["full", "interval", "explicit"])
    @pytest.mark.parametrize("d", [uniform(64), ZERO_HALF, sparse_random(64, 2)],
                             ids=["uniform", "zero_half", "sparse"])
    def test_split_has_the_multinomial_law(self, s, d):
        """x's binomial count and the rest drawn with given, against one
        multinomial on disjoint seeds: the counts at x, at the members of
        S below x and above it, two-sample KS at 0.01 over the three; the
        same charges and a histogram of m draws every time."""
        m, k = 50, 1000
        x = heaviest(d, s)
        split = OracleHandle(d, model=COND, seed=1, discipline=PERMISSIVE)
        whole = OracleHandle(d, model=COND, seed=2, discipline=PERMISSIVE)
        one = QuerySet.explicit([x])
        sides = []
        for h, draw in ((split, lambda: split.draw_counts(
                            s, m, given=(x, split.draw_subset_count(s, one, m)))),
                        (whole, lambda: whole.draw_counts(s, m))):
            cols = []
            for _ in range(k):
                idx, counts = draw()
                assert counts.sum() == m
                cols.append((counts[idx == x].sum(), counts[idx < x].sum(),
                             counts[idx > x].sum()))
            sides.append(np.array(cols))
        assert split.ledger.as_dict() == whole.ledger.as_dict()
        crit = law_check.ks_critical(k, k, 0.01 / 3)
        for a, b in zip(sides[0].T, sides[1].T):
            assert law_check.ks_statistic(a, b) <= crit


def bump(n, step, factor):
    """Uniform on 1..n with every step-th point, from 1, weighted by
    factor."""
    w = np.ones(n)
    w[::step] *= factor
    return make_distribution(w)


def two_level(n, a):
    """Weight a on 1..n/2, and the rest spread over n/2+1..n."""
    return make_distribution([a] * (n // 2) + [2.0 / n - a] * (n // 2))


# A kappa this large leaves every point of U(64) unsettled by round one
# (1/64 < kappa/20) and settles it in round two (1/32 > kappa/20).
WIDE_KAPPA = {"ae_kappa_c": 3e5}

# (name, D1, D2, profile overrides, the verdicts of three repetitions at
# each of seeds 0..2).
EVAL_CASES = [
    ("U_U_256", uniform(256), uniform(256), {}, [[ACCEPT] * 3] * 3),
    ("U_half_split_256", uniform(256), gen_half_split(256, 0.5), {}, [[REJECT] * 3] * 3),
    # D2 is zero on 100..110: a point there has no estimate on h2.
    ("U_gap_256", uniform(256), gap(256, 100, 110), {},
     [[ACCEPT, REJECT, REJECT], [REJECT, ACCEPT, ACCEPT], [ACCEPT, REJECT, ACCEPT]]),
    # The same gap in D1: a point there has no estimate on h1.
    ("gap_U_256", gap(256, 100, 110), uniform(256), {},
     [[ACCEPT, ACCEPT, ACCEPT], [REJECT, ACCEPT, ACCEPT], [ACCEPT, ACCEPT, REJECT]]),
    # Both sides settle every point in round one; the window rejects a
    # bumped one.
    ("U_bump_256", uniform(256), bump(256, 8, 1.3), {},
     [[REJECT, REJECT, ACCEPT], [REJECT] * 3, [REJECT] * 3]),
    # Every point takes two rounds on both sides.
    ("U_U_64_wide", uniform(64), uniform(64), WIDE_KAPPA, [[ACCEPT] * 3] * 3),
    # 1..32 weigh 0.0200 in D1, above kappa/20 = 0.0196, and 0.0194 in
    # D2: h1 settles them at once and h2 takes more rounds, and the two
    # estimates agree. 33..64 take more rounds on both sides.
    ("split_split_64_wide", two_level(64, 0.0200), two_level(64, 0.0194),
     WIDE_KAPPA, [[ACCEPT] * 3] * 3),
    # Mixed weights: some points settle in round one, some take more.
    ("rand_rand_64_wide", sparse_random(64, 7), sparse_random(64, 7), WIDE_KAPPA,
     [[ACCEPT] * 3] * 3),
]


def grid():
    """EVAL_CASES in the golden grid's form, for tools/law_check.py
    --grid; its --profile gives the WIDE_KAPPA cases their overrides."""
    return [(f"eval_equality/{name}", "eval_equality", d1, d2, 0.5, ())
            for name, d1, d2, *_ in EVAL_CASES]


def eval_outcomes(once, d1, d2, sched, seeds):
    """once's verdict and the two ledgers' sum at each seed, as
    tools/law_check.py reads a trial."""
    out = []
    for seed in seeds:
        h1, h2 = eval_handles(d1, d2, seed)
        verdict = once(h1, h2, sched)
        out.append({"verdict": verdict, "ledger": (h1.ledger + h2.ledger).as_dict()})
    return out


# Repetitions a side in the law check: at level 0.05 over the eight
# cases' 48 tests it tells an accept rate of 0.5 from one of 0.75, and a
# ledger column whose distribution function moves by 0.28. The full check,
# 2,000 a side, runs through tools/law_check.py --grid tests/test_batched.py.
LAW_TRIALS = 100


class TestEvalEqualityMatchesPointLoop:
    def test_same_law_as_the_loop(self):
        """The batched repetitions and reference_eval_test_equality_once,
        on disjoint seeds, agree in accept rate and in the law of every
        ledger column, by tools/law_check.py's comparison."""
        batched, loop = {}, {}
        for name, d1, d2, overrides, *_ in EVAL_CASES:
            sched = eval_schedule(d1.n, 0.5, ConstantsProfile("desk", overrides))
            batched[name] = eval_outcomes(_eval_test_equality_once, d1, d2, sched,
                                          range(LAW_TRIALS))
            loop[name] = eval_outcomes(reference_eval_test_equality_once, d1, d2, sched,
                                       range(LAW_TRIALS, 2 * LAW_TRIALS))
        rows = law_check.compare_sides(batched, loop)
        assert not [law_check.format_row(row) for row in rows if row.outside]

    @pytest.mark.parametrize("name, d1, d2, overrides, verdicts", EVAL_CASES)
    def test_verdicts(self, name, d1, d2, overrides, verdicts):
        sched = eval_schedule(d1.n, 0.5, ConstantsProfile("desk", overrides))
        got = []
        for seed in range(3):
            h1, h2 = eval_handles(d1, d2, seed)
            got.append([_eval_test_equality_once(h1, h2, sched) for _ in range(3)])
        assert got == verdicts

    @pytest.mark.parametrize("seed", range(3))
    def test_strict_later_rounds_on_a_handle_that_drew_nothing(self, seed):
        """Under STRICT, approx_eval's round two queries a set that holds a
        point of round one's histogram (frac > 0), which the rest drawn
        with given recorded as returned. On the handle that did not draw
        i* that point, not i*, is what lets the query through."""
        budget = eval_schedule(64, 0.5, ConstantsProfile("desk", WIDE_KAPPA)).budget
        h = OracleHandle(uniform(64), model=COND, seed=seed, discipline=STRICT)
        draw_counts, calls = h.draw_counts, []

        def spy(s, m, given=None):
            idx, counts = draw_counts(s, m, given)
            calls.append((s.shape, given, set(idx[counts > 0].tolist()),
                          set(h.returned_points)))
            return idx, counts

        h.draw_counts = spy
        assert equality.approx_eval(h, 5, budget) is not None
        (shape1, given1, support, returned), (shape2, *_) = calls[:2]
        assert (shape1, given1[0], shape2) == (FULL, 5, EXPLICIT)
        assert returned == support


def eval_handles(d1, d2, seed):
    """(h1, h2), seeded as the harness seeds eval_equality."""
    return (OracleHandle(d1, model=COND, seed=seed, discipline=STRICT),
            OracleHandle(d2, model=COND, seed=seed ^ harness._SECOND_STREAM, discipline=STRICT))


# The scalar pair comparison ------------------------------------------------


def outcome_or_error(fn):
    """fn's (low, high, rho) with None for a NaN rho, so that equal
    outcomes compare equal, or the type of the CondtestError it raised."""
    try:
        low, high, rho = fn()
    except CondtestError as err:
        return type(err)
    return low, high, None if math.isnan(rho) else rho


@given(weights(), st.integers(0, 2**32), st.data(),
       st.sampled_from([PCOND, COND]), st.sampled_from([STRICT, PERMISSIVE]),
       st.sampled_from([(0.1, 2.0, 0.01), (0.3, 4.0, 0.2), (0.05, 1.0, 0.5)]))
@settings(max_examples=200, deadline=None)
def test_compare_points_matches_compare_on_points(w, seed, data, model,
                                                  discipline, params):
    d = make_distribution(w)
    # Half the draws pick both points from the zero weights, when there
    # are two, so that zero-mass pairs come up.
    pool = [i for i, v in enumerate(w, 1) if v == 0.0]
    if len(pool) < 2 or data.draw(st.booleans()):
        pool = range(1, d.n + 1)
    px, py = data.draw(st.lists(st.sampled_from(pool), min_size=2,
                                max_size=2, unique=True))
    h1, h2 = twins(d, model, seed, discipline)
    for h in (h1, h2):
        h.draw_many(QuerySet.full(), 2)
    eta, K, delta = params
    got = outcome_or_error(
        lambda: compare_points(h1, px, py, compare_budget(eta, K, delta), K))
    want = outcome_or_error(lambda: compare(
        h2, QuerySet.explicit([px]), QuerySet.explicit([py]), *params))
    assert got == want
    assert_same_state(h1, h2)
