"""uniform(2^j) keeps no N-sized array and matches its explicit twin.

Every weight, prefix mass and partial weight sum of a uniform over a
power of two is an exact float, so the array-free distribution must
give the explicit Distribution(np.full(n, 1/n)) bit for bit: the same
prefix masses, inverse CDF and masses, and through the oracle the same
draws, counts, ledgers and generator states. The scale tests run two
testers far past any size whose arrays would fit in memory.
"""

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condtest.distcore import MAX_WEIGHTS, Distribution, QuerySet, uniform
from condtest.errors import DomainTooLarge
from condtest.harness import run_trial
from condtest.oracles import COND, PERMISSIVE, OracleHandle
from condtest.uniformity import query_budget

SRC = Path(__file__).resolve().parent.parent / "src"
exponents = st.integers(min_value=0, max_value=20)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def explicit_twin(n):
    return Distribution(np.full(n, 1.0 / n))


def same_floats(a, b):
    """Equal values of equal dtype, so equal bits for these non-negative floats."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestDistribution:
    @pytest.mark.parametrize("j", [0, 1, 10, 40])
    def test_holds_no_domain_sized_array(self, j):
        d = uniform(2**j)
        assert d.n == 2**j and d.total == 1.0
        assert d.weights.shape == (2**j,) and d.weights.strides == (0,)
        assert not d.weights.flags.writeable
        assert not hasattr(d, "prefix")

    @pytest.mark.parametrize("n", [3, 10**4])
    def test_other_sizes_stay_explicit(self, n):
        d = uniform(n)
        assert d.weights.strides == (8,) and d.prefix.size == n + 1

    def test_other_sizes_past_memory_name_n(self):
        """In a process whose address space is capped at 1.5 GB, so that
        the arrays are refused, not allocated."""
        code = "\n".join((
            "import resource",
            "cap = (1_500_000_000, resource.getrlimit(resource.RLIMIT_AS)[1])",
            "resource.setrlimit(resource.RLIMIT_AS, cap)",
            "from condtest.distcore import uniform",
            "from condtest.errors import DomainTooLarge",
            "assert uniform(2**40).n == 2**40",
            "try:",
            "    uniform(10**12)",
            "except DomainTooLarge as e:",
            "    print(e)",
        ))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert "uniform(1000000000000)" in out.stdout

    @pytest.mark.parametrize("n", [2**60, 2**62, 2**63 + 2])
    def test_past_numpy_arrays_names_n(self, n):
        """Past MAX_WEIGHTS numpy refuses even a zero-stride view."""
        assert n > MAX_WEIGHTS >= 2**59
        with pytest.raises(DomainTooLarge, match=rf"uniform\({n}\)"):
            uniform(n)

    def test_largest_dyadic_size_stays_array_free(self):
        d = uniform(2**59)
        assert d.n == 2**59 and d.weights.strides == (0,)

    @given(exponents, seeds)
    @settings(max_examples=60, deadline=None)
    def test_prefix_at_and_locate_match(self, j, seed):
        n = 2**j
        d, twin = uniform(n), explicit_twin(n)
        rng = np.random.default_rng(seed)
        ks = np.concatenate(([0, n], rng.integers(0, n + 1, size=50)))
        for k in ks[:8].tolist():
            assert same_floats(d.prefix_at(k), twin.prefix_at(k))
        assert same_floats(d.prefix_at(ks), twin.prefix_at(ks))
        exact = ks / n
        below = np.nextafter(exact, 0.0)
        for u in (rng.random(200), exact, below):
            assert same_floats(d.locate(u), twin.locate(u))

    @given(exponents, seeds)
    @settings(max_examples=60, deadline=None)
    def test_masses_match(self, j, seed):
        n = 2**j
        d, twin = uniform(n), explicit_twin(n)
        rng = np.random.default_rng(seed)
        sets = [QuerySet.full()]
        for _ in range(10):
            a, b = np.sort(rng.integers(1, n + 1, size=2)).tolist()
            sets.append(QuerySet.interval(a, b))
            size = b - a + 1
            sets.append(QuerySet.explicit(np.arange(a, b + 1)[:64]))
            sets.append(QuerySet.explicit(
                np.unique(rng.integers(1, n + 1, size=min(size, 64)))))
            if a < b:
                sets.append(QuerySet.pair(a, b))
        for s in sets:
            assert same_floats(d.mass(s), twin.mass(s))


def handles(n, seed):
    return [OracleHandle(d, model=COND, seed=seed, discipline=PERMISSIVE)
            for d in (uniform(n), explicit_twin(n))]


def assert_same_handles(h1, h2):
    assert h1.ledger.as_dict() == h2.ledger.as_dict()
    assert h1.rng.bit_generator.state == h2.rng.bit_generator.state
    assert h1.returned_points == h2.returned_points


@given(exponents, seeds)
@settings(max_examples=40, deadline=None)
def test_oracle_calls_match_the_explicit_twin(j, seed):
    n = 2**j
    handle, twin = handles(n, seed)
    rng = np.random.default_rng(seed)

    def same(call):
        got, want = call(handle), call(twin)
        if isinstance(got, tuple):
            assert all(same_floats(g, w) for g, w in zip(got, want))
        else:
            assert same_floats(got, want)
        assert_same_handles(handle, twin)

    a, b = np.sort(rng.integers(1, n + 1, size=2)).tolist()
    members = np.unique(rng.integers(1, n + 1, size=min(n, 40)))
    same(lambda h: h.draw_many(QuerySet.full(), 300))
    same(lambda h: h.draw_many(QuerySet.interval(a, b), 300))
    same(lambda h: h.draw_many(QuerySet.explicit(members), 300))
    if j <= 10:
        same(lambda h: h.draw_counts(QuerySet.full(), 10**6))
    same(lambda h: h.draw_counts(QuerySet.interval(a, min(b, a + 200)), 10**6))
    same(lambda h: h.draw_counts(QuerySet.explicit(members), 10**6))
    if n == 1:
        return
    lo = rng.integers(1, n, size=30)
    hi = lo + rng.integers(1, n - lo + 1)
    same(lambda h: h.draw_pair_counts(lo, hi, 10**5))
    sub_lo = lo + (hi - lo) // 3
    same(lambda h: h.draw_interval_counts(lo, hi, sub_lo, hi - 1, 10**5))
    x = int(rng.integers(1, n + 1))
    rest = members[members != x]
    if rest.size:
        same(lambda h: h.draw_union_counts(x, rest, np.ones(rest.size, np.int64), 10**5))
        cut = rest.size // 2 or rest.size
        sizes = np.array([cut, rest.size - cut] if cut < rest.size else [cut])
        same(lambda h: h.draw_union_counts(x, rest, sizes, 10**5))


class TestScale:
    """pcond_uniform's ledger is independent of N; both uniformity
    testers run far past the sizes explicit arrays allow."""

    def test_pcond_uniform_at_two_to_the_forty(self):
        tracemalloc.start()
        try:
            rec = run_trial("pcond_uniform", uniform(2**40), None, 0.5, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.ledger.total == query_budget(0.5)
        assert rec.ledger.pcond_count > 0
        assert peak < 8 * 2**20

    def test_icond_uniform_at_two_to_the_thirty(self):
        t0 = time.perf_counter()
        rec = run_trial("icond_uniform", uniform(2**30), None, 0.5, 7)
        assert time.perf_counter() - t0 < 1.0
        assert rec.verdict in ("Accept", "Reject")
        assert rec.ledger.icond_count > 0
