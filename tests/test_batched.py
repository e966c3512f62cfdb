"""The batched comparison kernel against the scalar loops it replaced.

OracleHandle.draw_subset_counts, pcond_test_uniform and binary_descent
draw many comparisons in one call. Each is held here against a verbatim
copy of the scalar loop it replaced: hit counts element by element,
verdicts and values exactly, every ledger column, and the state the
generator is left in.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condtest.adversarial import gen_block_profile, gen_half_split
from condtest.distcore import INTERVAL, PAIR, QuerySet, make_distribution, uniform
from condtest.errors import (
    BadQuerySet,
    DisciplineViolation,
    IllegalShapeForModel,
    ZeroMassSet,
)
from condtest.interval import binary_descent, descent_tolerances, icond_test_uniform
from condtest.oracles import COND, ICOND, PCOND, PERMISSIVE, STRICT, OracleHandle
from condtest.profiles import DESK
from condtest.subroutines import classify, compare, compare_budget, compare_points
from condtest.uniformity import pcond_test_uniform, query_budget, schedule


# The scalar loops, kept verbatim as references --------------------------


def hit_fraction(out):
    """The hit-rate estimate of a compare outcome; 0 and 1 for the
    saturated outcomes."""
    if out.is_low:
        return 0.0
    if out.is_high:
        return 1.0
    return out.rho / (1.0 + out.rho)


def reference_pcond_test_uniform(h, eps, profile=DESK):
    """pcond_test_uniform as one compare_points call per (reference,
    point) pair."""
    n = h.dist.n
    if n == 1:
        return "Accept"
    q = profile["unif_q"]
    refs = h.rng.integers(1, n + 1, size=q)
    full = QuerySet.full()
    reject = False
    for s_j, eta_j, delta_j, window, m_j in schedule(eps, profile):
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
                        out = compare_points(h, x, y, eta_j, 2.0, delta_j, profile)
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
    eta, delta = descent_tolerances(n, eps)
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
            out = compare(
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
        if not out.is_ratio:
            return None
        if not ((1.0 - eta) * rho_star <= out.rho <= (1.0 + eta) * rho_star):
            return None
        value *= out.rho / (1.0 + out.rho)
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


def scalar_counts(h, shape, lo, hi, sub_lo, sub_hi, m):
    """draw_subset_count element by element; -1 on a zero-mass union."""
    out = []
    for a, b, sa, sb in zip(lo, hi, sub_lo, sub_hi):
        if shape == PAIR:
            union, sub = QuerySet.pair(int(a), int(b)), QuerySet.explicit([int(sa)])
        else:
            union, sub = QuerySet.interval(int(a), int(b)), QuerySet.interval(int(sa), int(sb))
        try:
            out.append(h.draw_subset_count(union, sub, m))
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
    x, y = x[keep], y[keep]
    return np.minimum(x, y), np.maximum(x, y), y


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
            lo, hi, y = random_pairs(rng, 40, 300)
            assert np.any(d.weights[lo - 1] + d.weights[hi - 1] == 0.0)
            h1, h2 = twins(d, model, seed)
            got = h1.draw_subset_counts(PAIR, lo, hi, y, y, 5000)
            want = scalar_counts(h2, PAIR, lo, hi, y, y, 5000)
            assert got.tolist() == want
            assert_same_state(h1, h2)

    def test_strict_discipline(self):
        d = uniform(64)
        h1, h2 = twins(d, PCOND, 1, STRICT)
        for h in (h1, h2):
            h.draw_many(QuerySet.full(), 5)
        seen = sorted(h1.returned_points)
        lo = np.array([seen[0], seen[1], 1])
        hi = np.array([64, seen[2], seen[3]])
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        got = h1.draw_subset_counts(PAIR, lo, hi, hi, hi, 100)
        assert got.tolist() == scalar_counts(h2, PAIR, lo, hi, hi, hi, 100)
        assert_same_state(h1, h2)
        # Neither point returned: refused before anything is drawn.
        fresh = [i for i in range(1, 65) if i not in h1.returned_points][:2]
        with pytest.raises(DisciplineViolation):
            h1.draw_subset_counts(PAIR, [lo[0], fresh[0]], [hi[0], fresh[1]],
                                  [hi[0], fresh[1]], [hi[0], fresh[1]], 100)
        assert_same_state(h1, h2)

    @pytest.mark.parametrize("lo, hi, sub", [
        (3, 3, 3),     # not two points
        (0, 4, 4),     # below the domain
        (3, 65, 3),    # above the domain
        (3, 5, 4),     # subset not a point of the pair
    ])
    def test_bad_pairs_refused(self, lo, hi, sub):
        h = OracleHandle(uniform(64), model=PCOND, seed=0, discipline=PERMISSIVE)
        with pytest.raises(BadQuerySet):
            h.draw_subset_counts(PAIR, [1, lo], [2, hi], [2, sub], [2, sub], 10)
        assert h.ledger.total == 0

    def test_shape_must_suit_the_model(self):
        h = OracleHandle(uniform(8), model=ICOND, seed=0, discipline=PERMISSIVE)
        with pytest.raises(IllegalShapeForModel):
            h.draw_subset_counts(PAIR, [1], [2], [2], [2], 10)
        h = OracleHandle(uniform(8), model=PCOND, seed=0, discipline=PERMISSIVE)
        with pytest.raises(IllegalShapeForModel):
            h.draw_subset_counts(INTERVAL, [1], [4], [1], [2], 10)


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
        got = h1.draw_subset_counts(INTERVAL, lo, hi, sub_lo, sub_hi, 777)
        assert got.tolist() == scalar_counts(h2, INTERVAL, lo, hi, sub_lo, sub_hi, 777)
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
            h.draw_subset_counts(INTERVAL, [lo], [hi], [sub_lo], [sub_hi], 10)
        assert h.ledger.total == 0

    @pytest.mark.parametrize("k", [0, 1, 4, 7, 12])
    def test_reached_ends_where_the_scalar_calls_stop(self, k):
        # Element 5 has zero mass: reached past it charges nothing for it.
        d = make_distribution([1.0] * 8 + [0.0] * 8 + [2.0] * 8)
        lo = np.array([1, 3, 1, 17, 2, 9, 5, 1, 17, 3, 1, 20])
        hi = np.array([24, 9, 8, 24, 20, 16, 18, 16, 20, 4, 2, 22])
        h1, h2 = twins(d, COND, 9)
        got = h1.draw_subset_counts(INTERVAL, lo, hi, lo, lo, 1000,
                                    reached=lambda hits: k)
        want = scalar_counts(h2, INTERVAL, lo[:k], hi[:k], lo[:k], lo[:k], 1000)
        assert got.tolist() == want
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


class TestDescentMatchesScalarWalk:
    def test_one_point_at_a_time(self):
        """Values exactly, and the walk stops at the first, a middle and
        the last level in turn."""
        stops = set()
        for name, d in DESCENT_CASES:
            depth = (d.n - 1).bit_length()
            eta, delta = descent_tolerances(d.n, 0.5)
            m = compare_budget(eta, 2.0, delta, DESK)
            for y in (1, 17, d.n // 2, d.n // 2 + 1, d.n):
                h1, h2 = twins(d, ICOND, y)
                got = binary_descent(h1, [y], 0.5)
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
        assert binary_descent(h1, [], 0.5).size == 0
        assert_same_state(h1, h2)

    @pytest.mark.parametrize("name, d", DESCENT_CASES)
    def test_several_points_in_order(self, name, d):
        rng = np.random.default_rng(len(name))
        ys = rng.integers(1, d.n + 1, size=6)
        h1, h2 = twins(d, ICOND, 4)
        got = binary_descent(h1, ys, 0.5)
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
            got = binary_descent(h1, ys, 0.5, bounds=bounds)
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


@st.composite
def weights(draw):
    n = draw(st.integers(2, 40))
    w = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 3.7]),
                      min_size=n, max_size=n))
    if not any(w):
        w[0] = 1.0
    return w


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
