import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condtest.distcore import (
    EXPLICIT,
    FULL,
    INTERVAL,
    PAIR,
    QuerySet,
    make_distribution,
    neighborhood_mass,
    uniform,
)
from condtest.errors import SetsNotDisjoint, ZeroMassSet
from condtest.oracles import _SHAPE_COLUMN, COND, OracleHandle, PERMISSIVE
from condtest.profiles import DESK
from condtest.subroutines import (
    CompareOutcome,
    HIGH,
    LOW,
    RATIO,
    _disjoint,
    _union_set,
    compare,
    compare_budget,
    compare_points,
    estimate_neighborhood,
    neighborhood_grid,
    ratio_in_window,
)


def handle(weights, seed=0):
    return OracleHandle(
        make_distribution(weights), model=COND, seed=seed, discipline=PERMISSIVE
    )


class TestCompareOutcome:
    def test_flags(self):
        assert CompareOutcome(LOW).is_low
        assert CompareOutcome(HIGH).is_high
        assert CompareOutcome(RATIO, 2.0).is_ratio


class TestCompare:
    def test_budget_formula(self):
        assert compare_budget(0.1, 2.0, 0.1, DESK) == math.ceil(
            3.0 * 2.0 * math.log(20.0) / 0.01
        )
        cap = DESK["compare_max_draws"]
        assert compare_budget(1e-12, 1e6, 1e-9, DESK) == int(cap)

    def test_balanced_pair_gives_ratio_near_one(self):
        h = handle(np.ones(16), seed=1)
        out = compare_points(h, 1, 2, 0.1, 2.0, 0.01)
        assert out.is_ratio
        assert out.rho == pytest.approx(1.0, rel=0.15)

    def test_heavy_y_gives_high(self):
        w = np.ones(16)
        w[1] = 1000.0
        h = handle(w, seed=2)
        out = compare_points(h, 1, 2, 0.1, 2.0, 0.01)
        assert out.is_high

    def test_light_y_gives_low(self):
        w = np.ones(16)
        w[1] = 1e-4
        h = handle(w, seed=3)
        out = compare_points(h, 1, 2, 0.1, 2.0, 0.01)
        assert out.is_low

    def test_ratio_estimates_mass_ratio(self):
        # D(Y)/D(X) = 3 with interval sets
        w = np.array([1.0, 1.0, 3.0, 3.0])
        h = handle(w, seed=4)
        out = compare(
            h, QuerySet.interval(1, 2), QuerySet.interval(3, 4), 0.05, 4.0, 0.01
        )
        assert out.is_ratio
        assert out.rho == pytest.approx(3.0, rel=0.1)

    def test_disjointness_required(self):
        h = handle(np.ones(8))
        with pytest.raises(SetsNotDisjoint):
            compare(h, QuerySet.interval(1, 4), QuerySet.interval(4, 6),
                    0.1, 2.0, 0.1)

    def test_zero_mass_union_raises(self):
        h = handle([1, 0, 0, 1])
        with pytest.raises(ZeroMassSet):
            compare_points(h, 2, 3, 0.1, 2.0, 0.1)

    def test_interval_union_stays_interval(self):
        # On an interval-only oracle, comparing adjacent intervals works.
        from condtest.oracles import ICOND

        h = OracleHandle(uniform(8), model=ICOND, seed=5, discipline=PERMISSIVE)
        out = compare(
            h, QuerySet.interval(1, 4), QuerySet.interval(5, 8), 0.1, 2.0, 0.05
        )
        assert out.is_ratio
        assert h.ledger.icond_count > 0 and h.ledger.pcond_count == 0

    def test_queries_land_in_one_column(self):
        h = handle(np.ones(8), seed=6)
        m = compare_budget(0.2, 2.0, 0.2)
        compare_points(h, 1, 5, 0.2, 2.0, 0.2)
        assert h.ledger.pcond_count == m
        assert h.ledger.total == m


# Set operations by shape, against member arrays ----------------------

N_SMALL = 10


def ref_union(x, y, n):
    """Member-array union with the shape rule compare relies on."""
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


def same_set(s, t, n):
    return (s.shape == t.shape and s.a == t.a and s.b == t.b
            and np.array_equal(s.members(n), t.members(n)))


def check_against_members(x, y, n):
    overlap = np.intersect1d(x.members(n), y.members(n)).size > 0
    assert _disjoint(x, y, n) == (not overlap), (x, y)
    assert _disjoint(y, x, n) == (not overlap), (y, x)
    if not overlap:
        assert same_set(_union_set(x, y, n), ref_union(x, y, n), n), (x, y)


# Adjacent, touching, nested and one-point sets of every shape on 1..10.
SHAPE_POOL = [
    QuerySet.full(),
    QuerySet.pair(1, 2), QuerySet.pair(4, 5), QuerySet.pair(5, 9),
    QuerySet.pair(9, 10), QuerySet.pair(3, 7),
    QuerySet.interval(1, 1), QuerySet.interval(5, 5), QuerySet.interval(10, 10),
    QuerySet.interval(1, 4), QuerySet.interval(5, 10), QuerySet.interval(4, 6),
    QuerySet.interval(1, 10), QuerySet.interval(6, 8),
    QuerySet.explicit([1]), QuerySet.explicit([5]), QuerySet.explicit([10]),
    QuerySet.explicit([4, 6]), QuerySet.explicit([2, 5, 9]),
    QuerySet.explicit([5, 6, 7]), QuerySet.explicit([1, 10]),
    QuerySet.explicit([3, 4, 5, 6]), QuerySet.explicit([2, 3, 8]),
]


@st.composite
def query_sets(draw, n=N_SMALL):
    shape = draw(st.sampled_from([FULL, PAIR, INTERVAL, EXPLICIT]))
    if shape == FULL:
        return QuerySet.full()
    if shape == PAIR:
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                             unique=True))
        return QuerySet.pair(i, j)
    if shape == INTERVAL:
        a = draw(st.integers(1, n))
        return QuerySet.interval(a, draw(st.integers(a, n)))
    idx = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    return QuerySet.explicit(sorted(idx))


class TestSetsByShape:
    def test_pool_covers_every_shape_pair(self):
        shapes = {(x.shape, y.shape)
                  for x, y in itertools.product(SHAPE_POOL, repeat=2)}
        assert len(shapes) == 16

    def test_pool_pairs_match_member_arrays(self):
        for x, y in itertools.product(SHAPE_POOL, repeat=2):
            check_against_members(x, y, N_SMALL)

    def test_one_point_domain(self):
        full, one = QuerySet.full(), QuerySet.interval(1, 1)
        assert not _disjoint(full, one, 1)
        assert not _disjoint(full, QuerySet.explicit([1]), 1)

    @settings(max_examples=300, deadline=None)
    @given(query_sets(), query_sets())
    def test_random_pairs_match_member_arrays(self, x, y):
        check_against_members(x, y, N_SMALL)

    def test_compare_refuses_exactly_the_overlapping_pool_pairs(self):
        for k, (x, y) in enumerate(itertools.product(SHAPE_POOL, repeat=2)):
            h = OracleHandle(uniform(N_SMALL), model=COND, seed=k,
                             discipline=PERMISSIVE)
            if np.intersect1d(x.members(N_SMALL), y.members(N_SMALL)).size:
                with pytest.raises(SetsNotDisjoint):
                    compare(h, x, y, 0.5, 2.0, 0.5)
                continue
            compare(h, x, y, 0.5, 2.0, 0.5)
            col = _SHAPE_COLUMN[ref_union(x, y, N_SMALL).shape]
            assert h.ledger.total == getattr(h.ledger, col + "_count") > 0


class TestRatioWindow:
    def test_closed_boundaries(self):
        hi = 1.0 + 0.5 + 0.1 / 2.0
        assert ratio_in_window(CompareOutcome(RATIO, hi), 0.5, 0.1)
        assert ratio_in_window(CompareOutcome(RATIO, 1.0 / hi), 0.5, 0.1)
        assert not ratio_in_window(CompareOutcome(RATIO, hi + 1e-9), 0.5, 0.1)
        assert not ratio_in_window(CompareOutcome(LOW), 0.5, 0.1)
        assert not ratio_in_window(CompareOutcome(HIGH), 0.5, 0.1)


class TestNeighborhoodGrid:
    def test_values(self):
        theta, r = neighborhood_grid(0.25, 0.1, 0.2, 0.5)
        assert theta == pytest.approx(0.25 * 0.2 * 0.1 * 0.5 / 64.0)
        assert r == int(round(64.0 / (0.2 * 0.1 * 0.5)))


class TestEstimateNeighborhood:
    def test_uniform_everything_inside(self):
        h = handle(np.ones(64), seed=7)
        en = estimate_neighborhood(h, 5, 0.25, 0.25, 0.25, 0.25)
        assert en.w_hat == 1.0
        assert 0.25 < en.alpha < 0.5

    def test_isolated_point(self):
        w = np.ones(64)
        w[0] = 10000.0
        h = handle(w, seed=8)
        en = estimate_neighborhood(h, 1, 0.25, 0.25, 0.25, 0.25)
        # Neighborhood of the huge point holds only itself: weight ~ 10000/10063.
        assert en.w_hat > 0.9

    def test_alpha_strictly_inside_doubling_range(self):
        h = handle(np.ones(16), seed=9)
        for seed in range(30):
            h = handle(np.ones(16), seed=seed)
            en = estimate_neighborhood(h, 1, 0.2, 0.3, 0.3, 0.3)
            assert 0.2 < en.alpha < 0.4

    def test_grid_boundary_shells_are_thin(self):
        # Over the alpha grid, at most a delta/4 fraction of radii may
        # have a boundary shell (mass between radius alpha and
        # alpha + theta) heavier than eta*beta/16. Exhaustive scan.
        rng = np.random.default_rng(10)
        kappa, beta, eta, delta = 0.25, 0.25, 0.25, 0.25
        theta, r = neighborhood_grid(kappa, beta, eta, delta)
        for _ in range(5):
            d = make_distribution(rng.random(256) ** 2)
            x = int(rng.integers(1, 257))
            bad = 0
            for i in range(1, r):
                alpha = kappa + i * theta
                shell = neighborhood_mass(d, x, alpha + theta) - neighborhood_mass(
                    d, x, alpha
                )
                if shell > eta * beta / 16.0:
                    bad += 1
            assert bad / (r - 1) <= delta / 4.0
