"""The batched comparison kernels against the scalar loops they replaced.

OracleHandle.draw_pair_counts, draw_interval_counts and draw_union_counts,
pcond_test_uniform, binary_descent, cond_test_known's Main branch,
estimate_neighborhood, estimate_distance_to_uniformity and
pcond_test_equality's cross loop draw many comparisons in one call, and
eval_test_equality draws approx_eval's first round at many points in
one OracleHandle.draw_counts(rows=k) call; cond_test_known's Heavy
branch checks its frequencies in array operations.
Each is held here against a verbatim copy of the scalar loop it
replaced: hit counts element by element, verdicts and values exactly,
every ledger column, and the state the generator is left in.
find_reference, which calls estimate_neighborhood, is held against a
copy that calls the scalar one. The copies read a comparison's
(low, high, rho) triple where the replaced code read the tags of an
outcome object, which is gone.

The copies that compare intervals, or a point against a witness set,
call `compare` below: the paper's COMPARE of two disjoint sets, with
disjointness and the union worked out on member arrays. compare_points
is held against it seed for seed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condtest import distance, interval
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
from condtest.distcore import INTERVAL, QuerySet, make_distribution, uniform
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
    estimate_neighborhood,
    neighborhood_schedule,
)
from condtest.uniformity import ACCEPT, REJECT, pcond_test_uniform, query_budget, schedule


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
    k = sp.k_star
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


def scalar_pair_counts(h, x, ys, m):
    """draw_subset_count on each pair {x, y} against y, x one point or
    one per pair; -1 on a zero-mass pair."""
    out = []
    for a, b in zip(np.broadcast_to(x, np.shape(ys)).tolist(), np.asarray(ys).tolist()):
        try:
            out.append(h.draw_subset_count(QuerySet.pair(a, b), QuerySet.explicit([b]), m))
        except ZeroMassSet:
            out.append(-1)
    return out


def scalar_interval_counts(h, lo, hi, sub_lo, sub_hi, m):
    """draw_subset_count interval by interval; -1 on a zero-mass one."""
    out = []
    for a, b, sa, sb in zip(lo, hi, sub_lo, sub_hi):
        try:
            out.append(h.draw_subset_count(QuerySet.interval(int(a), int(b)),
                                           QuerySet.interval(int(sa), int(sb)), m))
        except ZeroMassSet:
            out.append(-1)
    return out


def scalar_union_counts(h, x, sets, m):
    """compare's draw for each set W: {x} union W against W, element by
    element; -1 on a zero-mass union."""
    out = []
    for wit in sets:
        wit = QuerySet.explicit(wit)
        try:
            out.append(h.draw_subset_count(
                ref_union(QuerySet.explicit([x]), wit, h.dist.n), wit, m))
        except ZeroMassSet:
            out.append(-1)
    return out


def twins(d, model, seed, discipline=PERMISSIVE):
    return (OracleHandle(d, model=model, seed=seed, discipline=discipline),
            OracleHandle(d, model=model, seed=seed, discipline=discipline))


def assert_same_state(h1, h2):
    assert h1.ledger.as_dict() == h2.ledger.as_dict()
    assert h1.rng.bit_generator.state == h2.rng.bit_generator.state
    assert h1.returned_points == h2.returned_points


def random_pairs(rng, n, k):
    x = rng.integers(1, n + 1, size=k)
    y = rng.integers(1, n + 1, size=k)
    keep = x != y
    return x[keep], y[keep]


ZERO_HALF = make_distribution([1.0] * 32 + [0.0] * 32)


# The kernel ----------------------------------------------------------------


class TestPairKernel:
    @pytest.mark.parametrize("model", [PCOND, COND])
    def test_matches_scalar_calls(self, model):
        rng = np.random.default_rng(3)
        w = rng.random(40) ** 3
        w[rng.random(40) < 0.3] = 0.0
        d = make_distribution(w)
        for seed in range(5):
            x, y = random_pairs(rng, 40, 300)
            assert np.any(d.weights[x - 1] + d.weights[y - 1] == 0.0)
            h1, h2 = twins(d, model, seed)
            got = h1.draw_pair_counts(x, y, 5000)
            assert got.tolist() == scalar_pair_counts(h2, x, y, 5000)
            assert_same_state(h1, h2)
            # One point x against every other point.
            x0 = int(x[0])
            ys = np.delete(np.arange(1, 41), x0 - 1)
            got = h1.draw_pair_counts(x0, ys, 5000)
            assert got.tolist() == scalar_pair_counts(h2, x0, ys, 5000)
            assert_same_state(h1, h2)
        for x in (3, np.empty(0, dtype=np.int64)):
            assert h1.draw_pair_counts(x, [], 10).size == 0
        assert_same_state(h1, h2)

    def test_strict_discipline(self):
        d = uniform(64)
        h1, h2 = twins(d, PCOND, 1, STRICT)
        for h in (h1, h2):
            h.draw_many(QuerySet.full(), 5)
        seen = sorted(h1.returned_points)
        x = np.array([seen[0], seen[2], 1])
        y = np.array([64, seen[1], seen[3]])
        got = h1.draw_pair_counts(x, y, 100)
        assert got.tolist() == scalar_pair_counts(h2, x, y, 100)
        assert_same_state(h1, h2)
        # Neither point returned: refused before anything is drawn.
        fresh = [i for i in range(1, 65) if i not in h1.returned_points][:4]
        with pytest.raises(DisciplineViolation):
            h1.draw_pair_counts(np.array([x[0], fresh[0]]), [y[0], fresh[1]], 100)
        with pytest.raises(DisciplineViolation):
            h1.draw_pair_counts(fresh[0], [seen[0], fresh[1]], 100)
        assert_same_state(h1, h2)
        # A returned x passes with any points; a fresh one with returned ones.
        for x0, ys in ((seen[3], fresh), (fresh[0], seen[:3])):
            got = h1.draw_pair_counts(x0, ys, 100)
            assert got.tolist() == scalar_pair_counts(h2, x0, ys, 100)
            assert_same_state(h1, h2)

    @pytest.mark.parametrize("x, y, error", [
        (3, 3, SetsNotDisjoint),   # not two points
        (0, 4, BadQuerySet),       # below the domain
        (3, 65, BadQuerySet),      # above the domain
        (65, 3, BadQuerySet),
    ])
    def test_bad_pairs_refused(self, x, y, error):
        h = OracleHandle(uniform(64), model=PCOND, seed=0, discipline=PERMISSIVE)
        state = h.rng.bit_generator.state
        with pytest.raises(error):
            h.draw_pair_counts(np.array([1, x]), [2, y], 10)
        with pytest.raises(error):
            h.draw_pair_counts(x, [1, y], 10)
        assert h.ledger.total == 0
        assert h.rng.bit_generator.state == state

    def test_x_needs_one_point_per_pair(self):
        h = OracleHandle(uniform(64), model=PCOND, seed=0, discipline=PERMISSIVE)
        with pytest.raises(BadQuerySet):
            h.draw_pair_counts(np.array([1, 2]), [3, 4, 5], 10)
        assert h.ledger.total == 0

    @pytest.mark.parametrize("one_point", [True, False])
    def test_refusal_order(self, one_point):
        """Shape, then domain, then distinct points, then discipline."""
        def call(h, x, ys):
            return h.draw_pair_counts(x if one_point else np.full(len(ys), x), ys, 10)

        with pytest.raises(IllegalShapeForModel):
            call(OracleHandle(uniform(64), model=ICOND, seed=0), 5, [5, 65, 6])
        h = OracleHandle(uniform(64), model=PCOND, seed=0, discipline=STRICT)
        state = h.rng.bit_generator.state
        for ys, error in (([5, 65, 6], BadQuerySet), ([5, 64, 6], SetsNotDisjoint),
                          ([4, 64, 6], DisciplineViolation)):
            with pytest.raises(error):
                call(h, 5, ys)
        assert h.ledger.total == 0
        assert h.rng.bit_generator.state == state

    @pytest.mark.parametrize("k", [0, 1, 3, 4, 7])
    def test_reached_ends_where_the_scalar_calls_stop(self, k):
        # Pair 3 has zero mass: reached past it charges nothing for it.
        d = ZERO_HALF
        x = np.array([1, 2, 40, 33, 5, 6, 7])
        y = np.array([9, 34, 50, 8, 20, 30, 3])
        h1, h2 = twins(d, PCOND, 4)
        got = h1.draw_pair_counts(x, y, 1000, reached=lambda hits: k)
        assert got.tolist() == scalar_pair_counts(h2, x[:k], y[:k], 1000)
        assert_same_state(h1, h2)
        h1, h2 = twins(d, PCOND, 4)
        got = h1.draw_pair_counts(40, y, 1000, reached=lambda hits: k)
        assert got.tolist() == scalar_pair_counts(h2, 40, y[:k], 1000)
        assert_same_state(h1, h2)

    def test_shape_must_suit_the_model(self):
        h = OracleHandle(uniform(8), model=ICOND, seed=0, discipline=PERMISSIVE)
        with pytest.raises(IllegalShapeForModel):
            h.draw_pair_counts(np.array([1]), [2], 10)
        h = OracleHandle(uniform(8), model=PCOND, seed=0, discipline=PERMISSIVE)
        with pytest.raises(IllegalShapeForModel):
            h.draw_interval_counts([1], [4], [1], [2], 10)


class TestIntervalKernel:
    def test_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        w = rng.random(50)
        w[10:20] = 0.0
        d = make_distribution(w)
        lo = rng.integers(1, 51, size=200)
        hi = np.minimum(lo + rng.integers(0, 20, size=200), 50)
        sub_lo = lo + (hi - lo) // 3
        sub_hi = np.maximum(sub_lo, hi - 1)
        assert np.any(d.prefix[hi] - d.prefix[lo - 1] == 0.0)
        h1, h2 = twins(d, ICOND, 2)
        got = h1.draw_interval_counts(lo, hi, sub_lo, sub_hi, 777)
        assert got.tolist() == scalar_interval_counts(h2, lo, hi, sub_lo, sub_hi, 777)
        assert_same_state(h1, h2)

    @pytest.mark.parametrize("lo, hi, sub_lo, sub_hi", [
        (2, 8, 1, 4),     # subset starts below the union
        (2, 8, 3, 9),     # subset ends above it
        (2, 8, 5, 4),     # empty subset
        (8, 2, 8, 8),     # empty union
        (2, 17, 3, 4),    # union above the domain
    ])
    def test_bad_intervals_refused(self, lo, hi, sub_lo, sub_hi):
        h = OracleHandle(uniform(16), model=ICOND, seed=0, discipline=PERMISSIVE)
        with pytest.raises(BadQuerySet):
            h.draw_interval_counts([lo], [hi], [sub_lo], [sub_hi], 10)
        assert h.ledger.total == 0

    @pytest.mark.parametrize("k", [0, 1, 4, 7, 12])
    def test_reached_ends_where_the_scalar_calls_stop(self, k):
        # Element 5 has zero mass: reached past it charges nothing for it.
        d = make_distribution([1.0] * 8 + [0.0] * 8 + [2.0] * 8)
        lo = np.array([1, 3, 1, 17, 2, 9, 5, 1, 17, 3, 1, 20])
        hi = np.array([24, 9, 8, 24, 20, 16, 18, 16, 20, 4, 2, 22])
        h1, h2 = twins(d, COND, 9)
        got = h1.draw_interval_counts(lo, hi, lo, lo, 1000, reached=lambda hits: k)
        want = scalar_interval_counts(h2, lo[:k], hi[:k], lo[:k], lo[:k], 1000)
        assert got.tolist() == want
        assert_same_state(h1, h2)


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
            got = h1.draw_union_counts(x, *union_args(sets), 7919)
            assert got.tolist() == scalar_union_counts(h2, x, sets, 7919)
            assert_same_draws(h1, h2)
        sizes = {len(w) for w in sets}
        assert (sizes == {1}) == (max_size == 1)
        if name == "mixed":
            assert 1 in sizes and len(sizes) > 1

    @pytest.mark.parametrize("discipline", [STRICT, PERMISSIVE])
    def test_one_point_sets_are_a_pair_call(self, discipline):
        h1, h2 = twins(ZERO_HALF, PCOND, 6, discipline)
        for h in (h1, h2):
            h.draw_many(QuerySet.full(), 8)
        ys = sorted(h1.returned_points)
        if discipline == PERMISSIVE:
            ys += [40, 50]  # zero-mass pairs with x
        got = h1.draw_union_counts(35, ys, np.ones(len(ys), np.int64), 1000)
        assert got.tolist() == h2.draw_pair_counts(35, ys, 1000).tolist()
        assert_same_state(h1, h2)

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
        got = h1.draw_union_counts(x, *union_args([rest, rest[:3]]), 500)
        assert got.tolist()[0] == 500
        assert got.tolist() == scalar_union_counts(h2, x, [rest, rest[:3]], 500)
        assert_same_draws(h1, h2)

    def test_zero_mass_unions_are_neither_drawn_nor_charged(self):
        d = ZERO_HALF  # points 33..64 weigh nothing
        sets = [[40], [1], [33, 50], [2, 40], [34], [60, 61, 62]]
        h1, h2 = recording_twins(d, COND, 5)
        got = h1.draw_union_counts(35, *union_args(sets), 1000)
        assert got.tolist() == scalar_union_counts(h2, 35, sets, 1000)
        assert got.tolist()[0] == got.tolist()[2] == got.tolist()[4] == -1
        assert_same_draws(h1, h2)
        assert h1.ledger.pcond_count == h1.ledger.cond_count == 1000
        # One-point sets only.
        sets = [[40], [1], [34], [2]]
        got = h1.draw_union_counts(35, *union_args(sets), 1000)
        assert got.tolist() == scalar_union_counts(h2, 35, sets, 1000)
        assert got.tolist()[0] == got.tolist()[2] == -1
        assert_same_draws(h1, h2)
        assert h1.ledger.pcond_count == 3000

    def test_strict_discipline(self):
        d = uniform(64)
        h1, h2 = twins(d, COND, 1, STRICT)
        for h in (h1, h2):
            h.draw_many(QuerySet.full(), 6)
        seen = sorted(h1.returned_points)
        fresh = [i for i in range(1, 65) if i not in h1.returned_points]
        # x never returned: every set must hold a returned point.
        sets = [[seen[0]], sorted([fresh[1], seen[1]]), sorted([seen[2], fresh[2], fresh[3]])]
        got = h1.draw_union_counts(fresh[0], *union_args(sets), 100)
        assert got.tolist() == scalar_union_counts(h2, fresh[0], sets, 100)
        assert_same_state(h1, h2)
        with pytest.raises(DisciplineViolation):
            h1.draw_union_counts(fresh[0], *union_args(sets + [fresh[4:6]]), 100)
        with pytest.raises(DisciplineViolation):
            h1.draw_union_counts(fresh[0], *union_args([[seen[0]], [fresh[4]]]), 100)
        assert_same_state(h1, h2)
        # A returned x passes with any sets.
        got = h1.draw_union_counts(seen[3], *union_args([fresh[4:6], [fresh[7]]]), 100)
        assert got.tolist() == scalar_union_counts(h2, seen[3], [fresh[4:6], [fresh[7]]], 100)
        assert_same_state(h1, h2)

    @pytest.mark.parametrize("x, sets, error", [
        (5, [[1], [5]], SetsNotDisjoint),
        (5, [[1, 2], [3, 5, 9]], SetsNotDisjoint),
        (5, [[1, 2], [9, 5]], BadQuerySet),     # not increasing
        (5, [[1, 2], [9, 9]], BadQuerySet),
        (5, [[2, 1], [3]], BadQuerySet),
        (5, [[0, 2]], BadQuerySet),             # outside the domain
        (5, [[7, 65]], BadQuerySet),
        (65, [[1]], BadQuerySet),
        (0, [[1]], BadQuerySet),
        (5, [], BadQuerySet),                   # no sets
    ])
    def test_bad_unions_refused_before_any_draw(self, x, sets, error):
        h = OracleHandle(uniform(64), model=COND, seed=0, discipline=PERMISSIVE)
        state = h.rng.bit_generator.state
        members = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
        with pytest.raises(error):
            h.draw_union_counts(x, members, [len(w) for w in sets], 10)
        assert h.ledger.total == 0
        assert h.rng.bit_generator.state == state

    def test_sizes_must_match_the_members(self):
        h = OracleHandle(uniform(64), model=COND, seed=0, discipline=PERMISSIVE)
        # [2, 1, 1] has one size per member but sums past them.
        for sizes in ([1, 1], [2, 0, 1], [3, 1], [2, 1, 1], [1, 1, 1, 1]):
            with pytest.raises(BadQuerySet):
                h.draw_union_counts(5, [1, 2, 3], sizes, 10)
        assert h.ledger.total == 0

    def test_shapes_must_suit_the_model(self):
        h = OracleHandle(uniform(8), model=PCOND, seed=0, discipline=PERMISSIVE)
        h.draw_union_counts(1, [2, 3], [1, 1], 10)
        with pytest.raises(IllegalShapeForModel):
            h.draw_union_counts(1, [2, 3, 4], [1, 2], 10)
        h = OracleHandle(uniform(8), model=ICOND, seed=0, discipline=PERMISSIVE)
        with pytest.raises(IllegalShapeForModel):
            h.draw_union_counts(1, [2], [1], 10)


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
    inner = h._binomial_counts

    def spy(mass, sub_mass, m, reached):
        seen.append((mass.tolist(), sub_mass.tolist()))
        return inner(mass, sub_mass, m, reached)

    h._binomial_counts = spy
    h.draw_union_counts(x, *union_args(sets), 100)
    unions = [QuerySet.explicit(np.sort(np.append(w, x))) for w in sets]
    assert seen == [([d.mass(u) for u in unions],
                     [d.mass(QuerySet.explicit(w)) for w in sets])]


def masked_binomial_counts(self, mass, sub_mass, m, reached):
    """OracleHandle._binomial_counts with its live mask, -1 fill and
    scatter taken whether or not any mass is zero: the reference for
    the path that skips them."""
    live = mass > 0.0
    p = np.minimum(sub_mass[live] / mass[live], 1.0)
    if reached is not None:
        state = self.rng.bit_generator.state
    hits = np.full(mass.size, -1, dtype=np.int64)
    hits[live] = self.rng.binomial(int(m), p)
    if reached is not None:
        k = reached(hits)
        if k < hits.size:
            hits, live = hits[:k], live[:k]
            self.rng.bit_generator.state = state
            self.rng.binomial(int(m), p[:np.count_nonzero(live)])
    return hits, live


class TestAllLiveBinomial:
    @pytest.mark.parametrize("stop", [None, 0, 1, 17, 40])
    @pytest.mark.parametrize("d", [uniform(64), ZERO_HALF], ids=["all_live", "zero_half"])
    def test_matches_the_masked_path(self, stop, d):
        rng = np.random.default_rng(11)
        x, y = random_pairs(rng, 64, 48)
        x, y = x[:40], y[:40]
        lo = rng.integers(1, 60, size=40)
        reached = None if stop is None else (lambda hits: min(stop, hits.size))
        h1, h2 = twins(d, COND, 7)
        h2._binomial_counts = masked_binomial_counts.__get__(h2)
        for call in (lambda h: h.draw_pair_counts(x, y, 1000, reached),
                     lambda h: h.draw_interval_counts(lo, lo + 4, lo, lo + 1, 1000,
                                                      reached)):
            assert call(h1).tolist() == call(h2).tolist()
            assert_same_state(h1, h2)


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
        kernel = h.draw_interval_counts

        def counted(lo, *args, **kwargs):
            sizes.append(len(lo))
            return kernel(lo, *args, **kwargs)

        h.draw_interval_counts = counted
        assert icond_test_uniform(h, 0.5) == verdict
        assert sizes[:1] == [16] and len(sizes) == calls


def witness_dead(target):
    """The target with no mass below the split, where every witness
    lies: each witness comparison sees a zero-mass witness."""
    sp = target.split(0.05)
    w = target.dstar.weights.copy()
    w[target.prefix_labels(sp.k_star) - 1] = 0.0
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
            x = h1.draw(QuerySet.full())
            assert h2.draw(QuerySet.full()) == x
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


# The second oracle's seed, as the harness derives it.
SECOND_STREAM = 0x9E3779B97F4A7C15

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
    a2, b2 = twins(d2, PCOND, seed ^ SECOND_STREAM)
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


# Histograms in rows, and eval_test_equality's round ones -----------------


def sparse_random(n, seed):
    """Random weights on 1..n, about a third of them zero."""
    rng = np.random.default_rng(seed)
    w = rng.random(n) ** 2
    w[rng.random(n) < 0.3] = 0.0
    return make_distribution(w)


COUNT_SETS = [QuerySet.full(), QuerySet.interval(5, 40),
              QuerySet.explicit([1, 2, 3, 10, 33, 34, 60])]


@pytest.mark.parametrize("p", [np.full(256, 1 / 256), sparse_random(300, 4).weights,
                               np.array([1e-9, 0.5 - 1e-9, 0.5])],
                         ids=["uniform_256", "random_300", "tiny_p"])
@pytest.mark.parametrize("m", [1, 1000, 50_000_000])
def test_multinomial_rows_are_single_calls(p, m):
    """numpy's multinomial with size=k draws the numbers, and leaves the
    generator state, of k calls in order: what draw_counts(rows=k)
    relies on."""
    p = p[p > 0]
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = a.multinomial(m, p, size=6)
        assert rows.tolist() == [b.multinomial(m, p).tolist() for _ in range(6)]
        assert a.bit_generator.state == b.bit_generator.state


class TestDrawCountsRows:
    @pytest.mark.parametrize("s", COUNT_SETS, ids=["full", "interval", "explicit"])
    @pytest.mark.parametrize("d", [uniform(64), ZERO_HALF, sparse_random(64, 2)],
                             ids=["uniform", "zero_half", "sparse"])
    def test_rows_are_single_calls(self, s, d):
        for seed in range(3):
            h1, h2 = twins(d, COND, seed)
            idx, rows = h1.draw_counts(s, 1000, rows=5)
            want = [h2.draw_counts(s, 1000) for _ in range(5)]
            assert all(i.tolist() == idx.tolist() for i, _ in want)
            assert rows.tolist() == [c.tolist() for _, c in want]
            assert_same_state(h1, h2)

    @pytest.mark.parametrize("keep", [0, 1, 3, 6])
    @pytest.mark.parametrize("s", COUNT_SETS, ids=["full", "interval", "explicit"])
    def test_reached_keeps_leading_calls(self, keep, s):
        d = sparse_random(64, 5)
        seen = []

        def reached(idx, counts):
            seen.append(counts.shape)
            return keep

        h1, h2 = twins(d, COND, 9)
        h1.draw_counts(s, 1000)  # a call before, as in a running tester
        h2.draw_counts(s, 1000)
        idx, rows = h1.draw_counts(s, 1000, rows=6, reached=reached)
        want = [h2.draw_counts(s, 1000)[1].tolist() for _ in range(keep)]
        assert seen == [(6, idx.size)]
        assert rows.shape == (keep, idx.size) and rows.tolist() == want
        assert_same_state(h1, h2)
        # The next draw is the (keep + 1)-th single call's.
        assert h1.draw_counts(s, 1000)[1].tolist() == h2.draw_counts(s, 1000)[1].tolist()

    @pytest.mark.parametrize("s, rows, discipline, error", [
        (QuerySet.interval(40, 50), 3, PERMISSIVE, ZeroMassSet),
        (QuerySet.interval(1, 8), 3, STRICT, DisciplineViolation),
        (QuerySet.full(), -1, STRICT, BadDrawCount),
        (QuerySet.full(), 2.0, STRICT, BadDrawCount),
    ])
    def test_refused_before_any_draw(self, s, rows, discipline, error):
        h = OracleHandle(ZERO_HALF, model=COND, seed=1, discipline=discipline)
        state = h.rng.bit_generator.state
        with pytest.raises(error):
            h.draw_counts(s, 1000, rows=rows)
        assert h.ledger.total == 0 and not h.returned_points
        assert h.rng.bit_generator.state == state


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
# each of seeds 0..2, the exits seen over those seeds). An exit is
# "first" for a repetition that rejects at its first point, before the
# batch; "kept" for a batch whose every point settles on both sides and
# agrees; "discarded" for one that does not, after which the points run
# one at a time.
EVAL_CASES = [
    ("U_U_256", uniform(256), uniform(256), {}, [[ACCEPT] * 3] * 3, {"kept"}),
    ("U_half_split_256", uniform(256), gen_half_split(256, 0.5), {},
     [[REJECT] * 3] * 3, {"first"}),
    # D2 is zero on 100..110: a batch with a point there is discarded
    # on h2's rows.
    ("U_gap_256", uniform(256), gap(256, 100, 110), {},
     [[ACCEPT, ACCEPT, REJECT], [REJECT, ACCEPT, ACCEPT], [ACCEPT, ACCEPT, REJECT]],
     {"kept", "discarded"}),
    # The same gap in D1: a batch with a point there is discarded on
    # h1's rows, and h2 draws none.
    ("gap_U_256", gap(256, 100, 110), uniform(256), {},
     [[ACCEPT, REJECT, REJECT], [REJECT, REJECT, ACCEPT], [ACCEPT, REJECT, ACCEPT]],
     {"kept", "discarded"}),
    # Both sides settle every point; the window rejects a bumped one,
    # first or later.
    ("U_bump_256", uniform(256), bump(256, 8, 1.3), {}, [[REJECT] * 3] * 3,
     {"first", "discarded"}),
    # Every point takes two rounds on both sides.
    ("U_U_64_wide", uniform(64), uniform(64), WIDE_KAPPA, [[ACCEPT] * 3] * 3,
     {"discarded"}),
    # 1..32 weigh 0.0200 in D1, above kappa/20 = 0.0196, and 0.0194 in
    # D2: h1 settles them at once and h2 takes more rounds, and the two
    # estimates agree. 33..64 take more rounds on both sides.
    ("split_split_64_wide", two_level(64, 0.0200), two_level(64, 0.0194),
     WIDE_KAPPA, [[ACCEPT] * 3] * 3, {"discarded"}),
    # Mixed weights: some points settle in round one, some take more.
    ("rand_rand_64_wide", sparse_random(64, 7), sparse_random(64, 7), WIDE_KAPPA,
     [[ACCEPT] * 3] * 3, {"discarded"}),
]


class TestEvalEqualityMatchesPointLoop:
    @pytest.mark.parametrize("name, d1, d2, overrides, verdicts, exits", EVAL_CASES)
    def test_same_verdicts_ledgers_and_generators(self, name, d1, d2, overrides,
                                                   verdicts, exits, monkeypatch):
        round_ones = equality._round_ones
        seen = []

        def spy(*args):
            kept = round_ones(*args)
            seen.append("kept" if kept else "discarded")
            return kept

        monkeypatch.setattr(equality, "_round_ones", spy)
        sched = eval_schedule(d1.n, 0.5, ConstantsProfile("desk", overrides))
        got = []
        for seed in range(3):
            (g1, g2), (r1, r2) = eval_twins(d1, d2, seed)
            reps = []
            for _ in range(3):
                calls = len(seen)
                verdict = _eval_test_equality_once(g1, g2, sched)
                assert verdict == reference_eval_test_equality_once(r1, r2, sched)
                assert_same_state(g1, r1)
                assert_same_state(g2, r2)
                if len(seen) == calls:
                    seen.append("first")
                reps.append(verdict)
            got.append(reps)
        assert got == verdicts
        assert exits <= set(seen)


def eval_twins(d1, d2, seed):
    """Two (h1, h2) pairs, seeded alike, one for each side, as the
    harness seeds eval_equality."""
    a1, b1 = twins(d1, COND, seed, STRICT)
    a2, b2 = twins(d2, COND, seed ^ SECOND_STREAM, STRICT)
    return (a1, a2), (b1, b2)


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


class TestComparePointsRefusals:
    """Each refusal raises before anything is drawn or charged."""

    @pytest.mark.parametrize("px, py, model, discipline, d, error", [
        (2, 2, COND, PERMISSIVE, uniform(8), SetsNotDisjoint),
        (0, 2, COND, PERMISSIVE, uniform(8), BadQuerySet),
        (2, 0, COND, PERMISSIVE, uniform(8), BadQuerySet),
        (9, 2, COND, PERMISSIVE, uniform(8), BadQuerySet),
        (2, 9, PCOND, PERMISSIVE, uniform(8), BadQuerySet),
        (1, 2, ICOND, PERMISSIVE, uniform(8), IllegalShapeForModel),
        (1, 2, PCOND, STRICT, uniform(8), DisciplineViolation),
        (40, 50, PCOND, PERMISSIVE, ZERO_HALF, ZeroMassSet),
    ])
    def test_refused_before_any_charge(self, px, py, model, discipline, d, error):
        h = OracleHandle(d, model=model, seed=3, discipline=discipline)
        state = h.rng.bit_generator.state
        with pytest.raises(error):
            compare_points(h, px, py, compare_budget(0.1, 2.0, 0.1), 2.0)
        assert h.ledger.total == 0
        assert h.rng.bit_generator.state == state
