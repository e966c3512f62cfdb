import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condtest.distcore import (EXPLICIT, INTERVAL, PAIR, QuerySet, conditional_pmf,
                               make_distribution, uniform)
from condtest.errors import (
    BadDrawCount,
    BadQuerySet,
    BadSeed,
    DisciplineViolation,
    IllegalShapeForModel,
    IncompatibleOracleModel,
    ZeroMassSet,
)
from condtest.oracles import (
    COND,
    ICOND,
    OracleHandle,
    PCOND,
    PERMISSIVE,
    SAMP,
    STRICT,
    QueryLedger,
)


def empirical_tv(draws, d, s):
    pmf = dict(conditional_pmf(d, s))
    idx, counts = np.unique(draws, return_counts=True)
    freq = dict(zip(idx.tolist(), (counts / draws.size).tolist()))
    pts = set(pmf) | set(freq)
    return 0.5 * sum(abs(pmf.get(i, 0.0) - freq.get(i, 0.0)) for i in pts)


class TestShapeRules:
    def test_allowed_shapes(self):
        d = uniform(8)
        cases = {
            SAMP: [QuerySet.full()],
            PCOND: [QuerySet.full(), QuerySet.pair(1, 2)],
            ICOND: [QuerySet.full(), QuerySet.interval(2, 5)],
            COND: [QuerySet.full(), QuerySet.pair(1, 2),
                   QuerySet.interval(2, 5), QuerySet.explicit([1, 4, 7])],
        }
        for model, oks in cases.items():
            h = OracleHandle(d, model=model, seed=0, discipline=PERMISSIVE)
            for s in oks:
                h.draw(s)

    @pytest.mark.parametrize("kw", [{"model": "bogus"}, {"discipline": "lax"}])
    def test_unknown_model_or_discipline(self, kw):
        with pytest.raises(IncompatibleOracleModel, match="unknown"):
            OracleHandle(uniform(8), **kw)

    def test_illegal_shapes(self):
        d = uniform(8)
        bad = {
            SAMP: QuerySet.pair(1, 2),
            PCOND: QuerySet.interval(1, 3),
            ICOND: QuerySet.pair(1, 2),
        }
        for model, s in bad.items():
            h = OracleHandle(d, model=model, seed=0, discipline=PERMISSIVE)
            with pytest.raises(IllegalShapeForModel):
                h.draw(s)

    def test_domain_check(self):
        h = OracleHandle(uniform(4), model=COND, seed=0, discipline=PERMISSIVE)
        with pytest.raises(BadQuerySet):
            h.draw(QuerySet.interval(2, 9))

    def test_zero_mass_failure(self):
        d = make_distribution([1, 0, 0, 1])
        h = OracleHandle(d, model=COND, seed=0, discipline=PERMISSIVE)
        with pytest.raises(ZeroMassSet):
            h.draw(QuerySet.pair(2, 3))


class TestSeed:
    @pytest.mark.parametrize("seed", [1.5, "7", True, None])
    def test_seed_not_an_integer(self, seed):
        with pytest.raises(BadSeed):
            OracleHandle(uniform(8), seed=seed)

    def test_numpy_integer_seed(self):
        got = OracleHandle(uniform(8), seed=np.int64(7)).rng.bit_generator.state
        assert got == OracleHandle(uniform(8), seed=7).rng.bit_generator.state


def frozen(h):
    """The ledger and the generator state, which a refusal leaves as they were."""
    return h.ledger.as_dict(), h.rng.bit_generator.state


class TestRefusedSubsetsAndCounts:
    """A subset outside S or the domain, and a draw count that is no
    integer >= 0, are refused before anything is drawn or charged."""

    @pytest.mark.parametrize("weights", [None, np.arange(1, 9)], ids=["uniform", "rising"])
    @pytest.mark.parametrize("s, subset", [
        (QuerySet.pair(1, 2), QuerySet.explicit([5])),
        (QuerySet.pair(1, 2), QuerySet.pair(2, 3)),
        (QuerySet.pair(1, 2), QuerySet.explicit([9])),
        (QuerySet.interval(1, 4), QuerySet.interval(3, 6)),
        (QuerySet.interval(1, 4), QuerySet.full()),
        (QuerySet.explicit([2, 4, 6]), QuerySet.explicit([4, 5])),
        (QuerySet.explicit([2, 4, 6]), QuerySet.interval(4, 6)),
        (QuerySet.full(), QuerySet.explicit([9])),
        (QuerySet.full(), QuerySet.interval(3, 12)),
    ])
    def test_subset_outside_s_or_the_domain(self, weights, s, subset):
        d = uniform(8) if weights is None else make_distribution(weights)
        h = OracleHandle(d, model=COND, seed=3, discipline=PERMISSIVE)
        before = frozen(h)
        with pytest.raises(BadQuerySet):
            h.draw_subset_count(s, subset, 100)
        assert frozen(h) == before

    @pytest.mark.parametrize("s, subset", [
        (QuerySet.pair(1, 2), QuerySet.explicit([2])),
        (QuerySet.pair(1, 8), QuerySet.pair(1, 8)),
        (QuerySet.interval(2, 6), QuerySet.explicit([2, 6])),
        (QuerySet.interval(1, 8), QuerySet.full()),
        (QuerySet.explicit([2, 4, 6]), QuerySet.interval(4, 4)),
        (QuerySet.explicit([2, 4, 6]), QuerySet.pair(2, 6)),
        (QuerySet.full(), QuerySet.interval(3, 8)),
    ])
    def test_subset_inside_s_is_drawn(self, s, subset):
        d = make_distribution(np.arange(1, 9))
        h = OracleHandle(d, model=COND, seed=3, discipline=PERMISSIVE)
        hits = h.draw_subset_count(s, subset, 2000)
        assert hits / 2000 == pytest.approx(d.mass(subset) / d.mass(s), abs=0.05)

    BATCHED = {
        "subset_counts_pairs": lambda h, m: h.draw_subset_counts(PAIR, (1, [2, 3]), m),
        "subset_counts_intervals": lambda h, m: h.draw_subset_counts(
            INTERVAL, ([1], [4], [2], [3]), m),
        "subset_counts_unions": lambda h, m: h.draw_subset_counts(
            EXPLICIT, (1, [2, 3, 5], [2, 1]), m),
        "subset_counts_unions_of_points": lambda h, m: h.draw_subset_counts(
            EXPLICIT, (1, [2, 3], [1, 1]), m),
    }
    CALLS = {
        "draw_many": lambda h, m: h.draw_many(QuerySet.full(), m),
        "draw_counts": lambda h, m: h.draw_counts(QuerySet.interval(2, 5), m),
        "draw_subset_count": lambda h, m: h.draw_subset_count(
            QuerySet.pair(1, 2), QuerySet.explicit([2]), m),
        "burn": lambda h, m: h.burn(QuerySet.full(), m),
        **BATCHED,
    }

    @pytest.mark.parametrize("m", [-1, -5, 2.5, 2.0, np.float64(3.0), True, np.bool_(True),
                                   "3", None])
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_draw_count_not_an_integer_at_least_zero(self, call, m):
        h = OracleHandle(uniform(8), model=COND, seed=3, discipline=PERMISSIVE)
        before = frozen(h)
        with pytest.raises(BadDrawCount):
            call(h, m)
        assert frozen(h) == before

    @pytest.mark.parametrize("m", [-1, 2.5, None])
    @pytest.mark.parametrize("call", BATCHED.values(), ids=BATCHED.keys())
    def test_batched_draw_count_checked_after_the_discipline(self, call, m):
        """A batched call refuses an untouched set under STRICT before it
        looks at m: no point was returned, so every set is untouched."""
        h = OracleHandle(uniform(8), model=COND, seed=3, discipline=STRICT)
        before = frozen(h)
        with pytest.raises(DisciplineViolation):
            call(h, m)
        assert frozen(h) == before

    @pytest.mark.parametrize("m", [0, 7, np.int64(7)])
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_draw_count_integer_at_least_zero(self, call, m):
        h = OracleHandle(uniform(8), model=COND, seed=3, discipline=PERMISSIVE)
        call(h, m)
        assert h.ledger.total % 7 == 0 and (h.ledger.total > 0) == (m > 0)

    def test_burn_of_a_bad_count_leaves_the_ledger(self):
        h = OracleHandle(uniform(8), model=COND, seed=3, discipline=PERMISSIVE)
        for m in (-5, 2.5):
            with pytest.raises(BadDrawCount):
                h.burn(QuerySet.full(), m)
        assert h.ledger.as_dict()["samp"] == 0


class TestDiscipline:
    def test_strict_blocks_unseen_sets(self):
        h = OracleHandle(uniform(16), model=COND, seed=1, discipline=STRICT)
        with pytest.raises(DisciplineViolation):
            h.draw(QuerySet.pair(1, 2))

    def test_strict_allows_sets_with_returned_point(self):
        h = OracleHandle(uniform(16), model=COND, seed=1, discipline=STRICT)
        x = h.draw(QuerySet.full())
        y = x + 1 if x < 16 else x - 1
        h.draw(QuerySet.pair(x, y))
        h.draw(QuerySet.interval(max(1, x - 2), min(16, x + 2)))

    def test_permissive_allows_anything_nonzero(self):
        h = OracleHandle(uniform(16), model=COND, seed=1, discipline=PERMISSIVE)
        h.draw(QuerySet.explicit([3, 9]))

    @staticmethod
    def _observe(h, op, s):
        """Query s with op; return the points the handle got to see."""
        if op == "draw_many":
            return h.draw_many(s, 2).tolist()
        if op == "draw_counts":
            idx, counts = h.draw_counts(s, 2)
            return idx[counts > 0].tolist()
        if op == "subset_count":
            h.draw_subset_count(s, s, 2)
        else:
            h.burn(s, 2)
        return []

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_strict_refusals_match_brute_force(self, data):
        """Every STRICT refusal and pass agrees with a set membership
        test against the points the draws returned, while draws that
        return new points are interleaved between the queries."""
        n = data.draw(st.integers(2, 40))
        w = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        h = OracleHandle(make_distribution(w), model=COND,
                         seed=data.draw(st.integers(0, 2**32)), discipline=STRICT)
        point = st.integers(1, n)
        seen = set()

        def query():
            shape = data.draw(st.sampled_from(["pair", "interval", "explicit"]))
            if shape == "pair":
                a, b = data.draw(st.lists(point, min_size=2, max_size=2,
                                          unique=True))
                return QuerySet.pair(a, b), {a, b}
            if shape == "interval":
                a, b = sorted(data.draw(st.tuples(point, point)))
                return QuerySet.interval(a, b), set(range(a, b + 1))
            idx = sorted(data.draw(st.sets(point, min_size=1, max_size=n)))
            return QuerySet.explicit(idx), set(idx)

        def batch():
            shape = data.draw(st.sampled_from([PAIR, INTERVAL]))
            k = data.draw(st.integers(1, 4))
            lo, hi = [], []
            for _ in range(k):
                a, b = sorted(data.draw(st.lists(point, min_size=2, max_size=2,
                                                 unique=shape == PAIR)))
                lo.append(a)
                hi.append(b)
            touched = all(({a, b} if shape == PAIR else set(range(a, b + 1))) & seen
                          for a, b in zip(lo, hi))
            sets = (np.array(lo), hi) if shape == PAIR else (lo, hi, lo, lo)
            if touched:
                h.draw_subset_counts(shape, sets, 3)
            else:
                with pytest.raises(DisciplineViolation):
                    h.draw_subset_counts(shape, sets, 3)

        steps = data.draw(st.integers(1, 12))
        batch_at = data.draw(st.integers(0, steps))
        for step in range(steps):
            if step == batch_at:
                batch()
            op = data.draw(st.sampled_from(
                ["full", "draw_many", "draw_counts", "subset_count", "burn"]))
            if op == "full":
                seen.update(h.draw_many(QuerySet.full(), 2).tolist())
                continue
            s, members = query()
            if not members & seen:
                with pytest.raises(DisciplineViolation):
                    self._observe(h, op, s)
            else:
                seen.update(self._observe(h, op, s))
        if batch_at == steps:
            batch()
        assert h.returned_points == seen


class TestSampling:
    def test_draw_many_matches_conditional_pmf(self):
        rng = np.random.default_rng(5)
        d = make_distribution(rng.random(32) ** 2)
        h = OracleHandle(d, model=COND, seed=9, discipline=PERMISSIVE)
        for s in (QuerySet.full(), QuerySet.interval(5, 20),
                  QuerySet.explicit([1, 4, 9, 25, 30]), QuerySet.pair(3, 17)):
            draws = h.draw_many(s, 40000)
            assert empirical_tv(draws, d, s) < 0.02

    def test_zero_weight_points_never_returned(self):
        w = np.ones(64)
        w[10:30] = 0.0
        d = make_distribution(w)
        h = OracleHandle(d, model=COND, seed=4, discipline=PERMISSIVE)
        draws = h.draw_many(QuerySet.full(), 20000)
        assert not np.any((draws >= 11) & (draws <= 30))
        draws = h.draw_many(QuerySet.interval(5, 40), 20000)
        assert not np.any((draws >= 11) & (draws <= 30))

    def test_draw_counts_matches_pmf(self):
        rng = np.random.default_rng(6)
        d = make_distribution(rng.random(20))
        h = OracleHandle(d, model=COND, seed=2, discipline=PERMISSIVE)
        s = QuerySet.interval(3, 18)
        idx, counts = h.draw_counts(s, 200000)
        pmf = dict(conditional_pmf(d, s))
        for i, c in zip(idx, counts):
            assert c / 200000 == pytest.approx(pmf[int(i)], abs=0.01)
        assert counts.sum() == 200000

    @pytest.mark.parametrize("w, s, x, c", [
        ([1.0] * 64, QuerySet.full(), 5, 3),
        ([1.0] * 64, QuerySet.interval(5, 40), 40, 10),        # no draw left
        ([1.0] * 32 + [0.0] * 32, QuerySet.full(), 40, 0),     # a zero-weight x
        ([1.0] * 32 + [0.0] * 32, QuerySet.interval(32, 40), 32, 10),  # x is S's mass
    ])
    def test_draw_counts_given_completes_the_histogram(self, w, s, x, c):
        # The other 10 - c draws fall on S's support without x; nothing is
        # charged, and the histogram's support is recorded as returned.
        d = make_distribution(w)
        h = OracleHandle(d, model=COND, seed=4, discipline=PERMISSIVE)
        idx, counts = h.draw_counts(s, 10, given=(x, c))
        assert counts.sum() == 10 and counts[idx == x].sum() == c
        assert idx.tolist() == [i for i, q in conditional_pmf(d, s) if q > 0]
        assert h.ledger.total == 0
        assert h.returned_points == set(idx[counts > 0].tolist())

    def test_draw_subset_count_mean(self):
        d = uniform(10)
        h = OracleHandle(d, model=COND, seed=3, discipline=PERMISSIVE)
        hits = h.draw_subset_count(QuerySet.full(), QuerySet.interval(1, 3), 100000)
        assert hits / 100000 == pytest.approx(0.3, abs=0.01)

    def test_subset_count_records_no_points(self):
        h = OracleHandle(uniform(10), model=COND, seed=3, discipline=PERMISSIVE)
        h.draw_subset_count(QuerySet.full(), QuerySet.interval(1, 3), 100)
        assert h.returned_points == set()

    def test_draw_many_records_the_distinct_points_drawn(self):
        d = make_distribution(np.random.default_rng(8).random(300) ** 4)
        for s in (QuerySet.full(), QuerySet.interval(40, 90),
                  QuerySet.explicit([2, 30, 31, 250]), QuerySet.pair(7, 8)):
            for m in (1, 5, 2000):
                h = OracleHandle(d, model=COND, seed=m, discipline=PERMISSIVE)
                out = h.draw_many(s, m)
                assert h.returned_points == set(np.unique(out).tolist())


class TestDeterminism:
    def test_same_seed_same_stream(self):
        d = make_distribution(np.arange(1, 33))
        a = OracleHandle(d, model=COND, seed=42, discipline=PERMISSIVE)
        b = OracleHandle(d, model=COND, seed=42, discipline=PERMISSIVE)
        for s in (QuerySet.full(), QuerySet.interval(2, 30), QuerySet.pair(1, 5)):
            assert a.draw_many(s, 50).tolist() == b.draw_many(s, 50).tolist()

    def test_fork_streams_independent(self):
        d = uniform(2)
        a = OracleHandle(d, model=SAMP, seed=0, discipline=STRICT)
        b = OracleHandle(d, model=SAMP, seed=1, discipline=STRICT)
        xa = a.draw_many(QuerySet.full(), 10000) == 1
        xb = b.draw_many(QuerySet.full(), 10000) == 1
        corr = np.corrcoef(xa, xb)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(10000)


class TestLedger:
    def test_columns_by_shape(self):
        h = OracleHandle(uniform(16), model=COND, seed=0, discipline=PERMISSIVE)
        h.draw_many(QuerySet.full(), 3)
        h.draw_many(QuerySet.pair(1, 2), 5)
        h.draw_many(QuerySet.interval(1, 4), 7)
        h.draw_many(QuerySet.explicit([1, 9]), 11)
        led = h.ledger
        assert (led.samp_count, led.pcond_count, led.icond_count, led.cond_count) == (
            3, 5, 7, 11,
        )
        assert led.total == 26

    def test_burn_counts_without_observing(self):
        h = OracleHandle(uniform(16), model=SAMP, seed=0)
        h.burn(QuerySet.full(), 1000)
        assert h.ledger.samp_count == 1000
        assert h.returned_points == set()

    def test_snapshot_is_a_copy(self):
        h = OracleHandle(uniform(4), model=SAMP, seed=0)
        snap = h.snapshot_ledger()
        h.draw(QuerySet.full())
        assert snap.total == 0 and h.ledger.total == 1

    def test_ledger_dict(self):
        led = QueryLedger(1, 2, 3, 4)
        assert led.as_dict() == {
            "samp": 1, "cond": 2, "pcond": 3, "icond": 4, "total": 10,
        }
