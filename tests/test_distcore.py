import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condtest.distcore import (
    BucketDecomposition,
    Distribution,
    QuerySet,
    bucketize,
    conditional_pmf,
    light_set,
    load_spec,
    make_distribution,
    neighborhood_mass,
    psi_vector,
    tv_distance,
    uniform,
)
from condtest.errors import (
    BadGeneratorParam,
    BadQuerySet,
    DomainMismatch,
    NegativeWeight,
    NonFiniteWeight,
    SpecParseError,
    ZeroMassSet,
    ZeroTotalMass,
)


def weights_strategy(max_n=64):
    return st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=max_n,
    ).filter(lambda w: sum(w) > 1e-9)


class TestQuerySet:
    def test_factories_and_members(self):
        assert QuerySet.full().members(5).size == 5
        p = QuerySet.pair(4, 2)
        assert (p.a, p.b) == (2, 4)
        assert list(p.members(10)) == [2, 4]
        iv = QuerySet.interval(3, 6)
        assert list(iv.members(10)) == [3, 4, 5, 6]
        ex = QuerySet.explicit([1, 5, 9])
        assert ex.members(10).size == 3

    def test_bad_sets(self):
        with pytest.raises(BadQuerySet):
            QuerySet.pair(3, 3)
        with pytest.raises(BadQuerySet):
            QuerySet.interval(5, 2)
        with pytest.raises(BadQuerySet):
            QuerySet.explicit([])
        with pytest.raises(BadQuerySet):
            QuerySet.explicit([2, 2, 3])
        with pytest.raises(BadQuerySet):
            QuerySet.explicit([0, 1])
        with pytest.raises(BadQuerySet):
            QuerySet.explicit([3, 1])


class TestDistribution:
    def test_normalizes(self):
        d = make_distribution([2.0, 2.0, 4.0])
        assert d.weights.tolist() == [0.25, 0.25, 0.5]
        assert d.weight(3) == 0.5

    def test_rejects_bad_weights(self):
        with pytest.raises(NegativeWeight):
            make_distribution([1.0, -0.1])
        with pytest.raises(ZeroTotalMass):
            make_distribution([0.0, 0.0])
        with pytest.raises(ZeroTotalMass):
            make_distribution([])

    @pytest.mark.parametrize("n", [0, -4])
    def test_uniform_needs_a_point(self, n):
        with pytest.raises(ZeroTotalMass):
            uniform(n)

    @pytest.mark.parametrize("n", [2.5, 8.0, "8", True, None, np.float64(8)])
    def test_uniform_needs_an_integer(self, n):
        with pytest.raises(BadGeneratorParam):
            uniform(n)

    @pytest.mark.parametrize("n", [np.int64(8), np.int32(12)])
    def test_uniform_takes_a_numpy_integer_as_an_int(self, n):
        d = uniform(n)
        assert type(d.n) is int and d.n == int(n)
        assert d.weight(1) == 1.0 / int(n)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(NonFiniteWeight):
            make_distribution([1.0, bad])

    def test_rejects_overflowing_weight_sum(self):
        with pytest.raises(NonFiniteWeight):
            make_distribution([1e308, 1e308])

    def test_mass_by_shape(self):
        d = make_distribution([1, 2, 3, 4])
        assert d.mass(QuerySet.full()) == 1.0
        assert d.mass(QuerySet.pair(1, 4)) == pytest.approx(0.5)
        assert d.mass(QuerySet.interval(2, 3)) == pytest.approx(0.5)
        assert d.mass(QuerySet.explicit([1, 3])) == pytest.approx(0.4)

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 128, 129, 1000, 8193, 20000])
    def test_contiguous_explicit_mass_is_the_gather_sum(self, size):
        """A run of labels is summed as a slice of the weights, other
        sets as a gather; each float is bit for bit the one segment of
        np.add.reduceat over the gathered weights."""
        rng = np.random.default_rng(size)
        w = rng.random(20011) ** 3
        w[rng.random(w.size) < 0.1] = 0.0
        d = make_distribution(w)
        for first in sorted({1, 2, 3, 5, 8, 17, 4097, d.n - size + 1}):
            if first + size - 1 > d.n:
                continue
            idx = np.arange(first, first + size)
            assert d.mass(QuerySet.explicit(idx)) == float(
                np.add.reduceat(d.weights.take(idx - 1), [0])[0])
        # Sets that span as many labels as they hold only when contiguous.
        gaps = np.arange(1, min(2 * size, d.n) + 1, 2)
        assert d.mass(QuerySet.explicit(gaps)) == float(
            np.add.reduceat(d.weights[gaps - 1], [0])[0])

    def test_weights_read_only(self):
        d = uniform(4)
        with pytest.raises(ValueError):
            d.weights[0] = 1.0

    @given(weights_strategy())
    @settings(max_examples=50, deadline=None)
    def test_prefix_consistency(self, w):
        d = make_distribution(w)
        assert d.prefix[-1] == pytest.approx(1.0)
        for a in range(1, d.n + 1):
            got = d.mass(QuerySet.interval(a, d.n))
            brute = sum(d.weight(i) for i in range(a, d.n + 1))
            assert got == pytest.approx(brute, abs=1e-12)


    def test_prefix_bit_identical_to_concatenated_cumsum(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 17, 1000, 2**16 + 3):
            w = rng.random(n) ** 4
            w[rng.random(n) < 0.2] = 0.0
            w[0] = 1.0
            d = make_distribution(w)
            old = np.concatenate(([0.0], np.cumsum(d.weights)))
            assert np.array_equal(d.prefix, old)
            assert not d.prefix.flags.writeable


def copying_normalization(weights):
    """(weights, prefix, total) as a constructor that normalizes into a
    second array computes them."""
    w = np.asarray(weights, dtype=np.float64)
    w = w / float(w.sum())
    prefix = np.empty(w.size + 1)
    prefix[0] = 0.0
    np.cumsum(w, out=prefix[1:])
    return w, prefix, float(w.sum())


def bit_identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNormalizationInPlace:
    """Distribution normalizes its own copy in place, to the bits of a
    normalization into a second array, and leaves its input alone."""

    @pytest.mark.parametrize("make", [
        lambda rng: (rng.random(1000) ** 3).tolist(),
        lambda rng: rng.integers(0, 50, size=777),
        lambda rng: np.repeat(rng.random(20000), 2)[::3],  # a non-contiguous view
        lambda rng: rng.random(9000).astype(np.float32),
    ])
    def test_bit_identical_to_a_copying_normalization(self, make):
        weights = make(np.random.default_rng(5))
        before = np.array(weights, copy=True)
        d = Distribution(weights)
        want = copying_normalization(weights)
        assert all(bit_identical(g, w) for g, w in zip((d.weights, d.prefix, d.total), want))
        assert np.array_equal(np.asarray(weights), before)
        assert d.weights.flags.owndata and not d.weights.flags.writeable

    @pytest.mark.parametrize("n", [10**4, 10**6 + 1])
    def test_uniform_bit_identical_to_a_copying_normalization(self, n):
        d = uniform(n)
        want = copying_normalization(np.full(n, 1.0 / n))
        assert all(bit_identical(g, w) for g, w in zip((d.weights, d.prefix, d.total), want))

    def test_uniform_peaks_near_what_it_keeps(self):
        tracemalloc.start()
        try:
            d = uniform(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (d.weights.nbytes + d.prefix.nbytes)


class TestConditionalPmf:
    def test_exact_values(self):
        d = make_distribution([1, 2, 3, 4])
        pmf = conditional_pmf(d, QuerySet.explicit([2, 4]))
        assert pmf == [(2, pytest.approx(1 / 3)), (4, pytest.approx(2 / 3))]

    def test_zero_mass_raises(self):
        d = make_distribution([1, 0, 0, 1])
        with pytest.raises(ZeroMassSet):
            conditional_pmf(d, QuerySet.pair(2, 3))

    def test_domain_check(self):
        with pytest.raises(BadQuerySet):
            conditional_pmf(uniform(4), QuerySet.interval(2, 9))


class TestTvDistance:
    def test_frozen_values(self):
        u = uniform(4)
        d = make_distribution([0.5, 0.5, 0.0, 0.0])
        assert tv_distance(u, d) == pytest.approx(0.5)
        assert tv_distance(u, u) == 0.0

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            tv_distance(uniform(3), uniform(4))

    @given(weights_strategy(16), weights_strategy(16))
    @settings(max_examples=50, deadline=None)
    def test_metric_axioms(self, w1, w2):
        n = min(len(w1), len(w2))
        d1 = make_distribution(np.asarray(w1[:n]) + 1e-3)
        d2 = make_distribution(np.asarray(w2[:n]) + 1e-3)
        a = tv_distance(d1, d2)
        assert 0.0 <= a <= 1.0
        assert a == tv_distance(d2, d1)
        assert tv_distance(d1, d1) == 0.0

    @given(weights_strategy(16), weights_strategy(16), weights_strategy(16))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, w1, w2, w3):
        n = min(len(w1), len(w2), len(w3))
        d1, d2, d3 = (
            make_distribution(np.asarray(w[:n]) + 1e-3) for w in (w1, w2, w3)
        )
        assert tv_distance(d1, d3) <= tv_distance(d1, d2) + tv_distance(d2, d3) + 1e-12


class TestPsi:
    def test_pointwise(self):
        d = make_distribution([3, 1, 0])
        # weights (0.75, 0.25, 0); N*w = (2.25, 0.75, 0)
        assert psi_vector(d).tolist() == pytest.approx([0.0, 0.25, 1.0])

    @given(weights_strategy(32))
    @settings(max_examples=50, deadline=None)
    def test_mean_psi_is_distance_to_uniform(self, w):
        d = make_distribution(w)
        assert float(psi_vector(d).mean()) == pytest.approx(
            tv_distance(d, uniform(d.n)), abs=1e-10
        )


class TestNeighborhoods:
    def test_brute_force_match(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = make_distribution(rng.random(30) ** 2)
            x = int(rng.integers(1, 31))
            gamma = float(rng.uniform(0.05, 2.0))
            wx = d.weight(x)
            brute = [
                y
                for y in range(1, 31)
                if wx / (1 + gamma) <= d.weight(y) <= (1 + gamma) * wx
            ]
            assert neighborhood_mass(d, x, gamma) == pytest.approx(
                sum(d.weight(y) for y in brute)
            )

    def test_monotone_in_gamma(self):
        d = make_distribution(np.arange(1, 21))
        masses = [neighborhood_mass(d, 10, g) for g in (0.1, 0.5, 1.0, 3.0)]
        assert masses == sorted(masses)


class TestHeavyLight:
    def test_light_set_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = make_distribution(rng.random(16) ** 3)
            tau = float(rng.uniform(0.05, 0.5))
            got = set(light_set(d, tau).tolist())
            order = np.argsort(d.weights, kind="stable")
            cum, brute = 0.0, set()
            for pos in order:
                if cum + d.weights[pos] >= tau and d.weights[pos] > 0:
                    break
                cum += d.weights[pos]
                brute.add(pos + 1)
            brute |= {i + 1 for i in range(16) if d.weights[i] == 0}
            assert got == brute


class TestBucketize:
    def _assert_partition(self, d, dec: BucketDecomposition):
        assert dec.bucket_index_of.size == d.n
        assert dec.bucket_index_of.min() >= 0
        assert dec.bucket_index_of.max() < dec.masses.size
        for j, mass in enumerate(dec.masses):
            assert mass == float(d.weights[dec.bucket_index_of == j].sum())
        assert dec.masses.sum() == pytest.approx(1.0)

    def test_known_identity_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = make_distribution(rng.random(40) ** 2)
            eta = 0.1
            dec = bucketize(d, eta)
            self._assert_partition(d, dec)
            b = math.ceil(math.log2(d.n / eta) + 1) + 1
            assert dec.masses.size == b
            # Bucket 0 below eta/N, bucket j in [2^(j-1) eta/N, 2^j eta/N),
            # the last one unbounded above.
            edges = [0.0] + [2.0 ** (j - 1) * eta / d.n for j in range(1, b)] + [math.inf]
            for i in range(1, d.n + 1):
                j = dec.bucket_index_of[i - 1]
                lo, hi = edges[j], edges[j + 1]
                w = d.weight(i)
                assert lo <= w < hi or (w == 0.0 and lo == 0.0)

    def test_known_identity_frozen(self):
        d = make_distribution([0.5, 0.25, 0.125, 0.125])
        dec = bucketize(d, 0.5)
        # eta/N = 0.125; bands [0.125,0.25), [0.25,0.5), [0.5,1), ...
        assert dec.bucket_index_of[0] == 3
        assert dec.bucket_index_of[1] == 2
        assert dec.bucket_index_of[2] == 1


class TestLoadSpec:
    def test_explicit(self):
        d = load_spec({"kind": "explicit", "weights": [1, 1, 2]})
        assert d.weight(3) == 0.5

    def test_generator(self):
        d = load_spec(
            {"kind": "generator", "name": "half_split",
             "params": {"n": 4, "eps": 0.25}}
        )
        assert d.weights.tolist() == [0.375, 0.375, 0.125, 0.125]

    def test_json_string_and_file(self, tmp_path):
        text = '{"kind": "explicit", "weights": [1, 3]}'
        assert load_spec(text).weight(2) == 0.75
        p = tmp_path / "spec.json"
        p.write_text(text)
        assert load_spec(str(p)).weight(2) == 0.75

    def test_errors(self):
        with pytest.raises(SpecParseError):
            load_spec("not json")
        with pytest.raises(SpecParseError):
            load_spec({"kind": "nope"})
        with pytest.raises(SpecParseError):
            load_spec({"kind": "generator", "name": "mystery", "params": {}})
        with pytest.raises(SpecParseError):
            load_spec({"kind": "explicit", "weights": [-1, 2]})
        with pytest.raises(SpecParseError):
            load_spec('{"kind": "explicit", "weights": [1, NaN]}')

    def test_generator_range_error_is_spec_error(self):
        with pytest.raises(SpecParseError, match="bad generator params"):
            load_spec({"kind": "generator", "name": "half_split",
                       "params": {"n": 64, "eps": 0.7}})
