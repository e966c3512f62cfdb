import numpy as np
import pytest

from condtest.adversarial import rand_block_profile
from condtest.distcore import make_distribution, uniform
from condtest.interval import (
    _walks,
    binary_descent,
    icond_test_uniform,
    schedule,
)
from condtest.oracles import ICOND, OracleHandle, PERMISSIVE, STRICT
from condtest.subroutines import compare_budget
from condtest.uniformity import ACCEPT, REJECT


def handle(d, seed=0, discipline=STRICT):
    return OracleHandle(d, model=ICOND, seed=seed, discipline=discipline)


def descent_budget(h):
    """binary_descent's (eta, m) in icond_test_uniform at eps = 0.5."""
    return schedule(h.dist.n, 0.5)[1:3]


def stepped_walk(n, y):
    """The intervals of y's walk, one level at a time from [1, n]."""
    a, b, out = 1, n, [(1, n)]
    while a < b:
        c = (a + b) // 2
        a, b = (a, c) if y <= c else (c + 1, b)
        out.append((a, b))
    return out


@pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 11, 64, 100, 127, 129, 1000, 2**16,
                               2**20 + 1, 3 * 2**30, 2**40 + 3, 2**62 - 1])
def test_walks_match_a_walk_one_level_at_a_time(n):
    rng = np.random.default_rng(n % 2**32)
    ys = np.unique(np.concatenate((
        [1, n, (n + 1) // 2, n // 2 + 1], rng.integers(1, n + 1, size=60))))
    a, b = _walks(n, ys)
    for y, row_a, row_b in zip(ys.tolist(), a.tolist(), b.tolist()):
        walk = stepped_walk(n, y)
        assert list(zip(row_a, row_b)) == walk + [(y, y)] * (len(row_a) - len(walk))


class TestSchedule:
    def test_values(self):
        t, eta, m, bounds = schedule(1024, 0.5)
        assert t == 40
        assert eta == pytest.approx(0.5 / 480.0)
        assert m == compare_budget(eta, 2.0, 0.5 / 1100.0)
        assert bounds == pytest.approx(((1.0 - 0.5 / 12.0) / 1024,
                                        (1.0 + 0.5 / 12.0) / 1024))


class TestBinaryDescent:
    def test_uniform_power_of_two(self):
        n = 256
        h = handle(uniform(n), seed=1, discipline=PERMISSIVE)
        v, = binary_descent(h, [37], *descent_budget(h))
        assert v == pytest.approx(1.0 / n, rel=0.05)

    def test_uniform_odd_size(self):
        n = 100
        h = handle(uniform(n), seed=2, discipline=PERMISSIVE)
        for y in (1, 50, 100):
            v, = binary_descent(h, [y], *descent_budget(h))
            assert v == pytest.approx(1.0 / n, rel=0.06)

    def test_singleton_domain(self):
        h = handle(uniform(1), seed=3)
        # Nothing is drawn on one point, so any (eta, m) will do.
        assert binary_descent(h, [1], 1.0, 1) == [1.0]
        assert h.ledger.total == 0

    def test_detects_skewed_split(self):
        w = np.ones(64)
        w[:32] = 3.0
        h = handle(make_distribution(w), seed=4, discipline=PERMISSIVE)
        assert binary_descent(h, [5], *descent_budget(h)) is None

    def test_zero_mass_branch_rejects(self):
        w = np.ones(64)
        w[32:] = 0.0
        h = handle(make_distribution(w), seed=5, discipline=PERMISSIVE)
        assert binary_descent(h, [40], *descent_budget(h)) is None

    def test_only_interval_and_full_queries(self):
        h = handle(uniform(128), seed=6, discipline=PERMISSIVE)
        binary_descent(h, [7], *descent_budget(h))
        assert h.ledger.pcond_count == 0
        assert h.ledger.cond_count == 0
        assert h.ledger.icond_count > 0


class TestIcondTestUniform:
    def test_accepts_uniform(self):
        acc = sum(
            icond_test_uniform(handle(uniform(1024), seed=s), 0.5) == ACCEPT
            for s in range(15)
        )
        assert acc >= 12

    def test_rejects_block_profile(self):
        rng = np.random.default_rng(0)
        d = rand_block_profile(1024, 0.5, rng, x=5)
        rej = sum(
            icond_test_uniform(handle(d, seed=s), 0.5) == REJECT
            for s in range(15)
        )
        assert rej >= 14

    def test_singleton_accepts(self):
        assert icond_test_uniform(handle(uniform(1), seed=1), 0.5) == ACCEPT
