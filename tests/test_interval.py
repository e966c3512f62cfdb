import numpy as np
import pytest

from condtest.adversarial import rand_block_profile
from condtest.distcore import make_distribution, uniform
from condtest.interval import (
    binary_descent,
    descent_tolerances,
    icond_test_uniform,
)
from condtest.oracles import ICOND, OracleHandle, PERMISSIVE, STRICT
from condtest.uniformity import ACCEPT, REJECT


def handle(d, seed=0, discipline=STRICT):
    return OracleHandle(d, model=ICOND, seed=seed, discipline=discipline)


class TestDescentTolerances:
    def test_values(self):
        eta, delta = descent_tolerances(1024, 0.5)
        assert eta == pytest.approx(0.5 / 480.0)
        assert delta == pytest.approx(0.5 / 1100.0)


class TestBinaryDescent:
    def test_uniform_power_of_two(self):
        n = 256
        h = handle(uniform(n), seed=1, discipline=PERMISSIVE)
        v, = binary_descent(h, [37], 0.5)
        assert v == pytest.approx(1.0 / n, rel=0.05)

    def test_uniform_odd_size(self):
        n = 100
        h = handle(uniform(n), seed=2, discipline=PERMISSIVE)
        for y in (1, 50, 100):
            v, = binary_descent(h, [y], 0.5)
            assert v == pytest.approx(1.0 / n, rel=0.06)

    def test_singleton_domain(self):
        h = handle(uniform(1), seed=3)
        assert binary_descent(h, [1], 0.5) == [1.0]
        assert h.ledger.total == 0

    def test_detects_skewed_split(self):
        w = np.ones(64)
        w[:32] = 3.0
        h = handle(make_distribution(w), seed=4, discipline=PERMISSIVE)
        assert binary_descent(h, [5], 0.5) is None

    def test_zero_mass_branch_rejects(self):
        w = np.ones(64)
        w[32:] = 0.0
        h = handle(make_distribution(w), seed=5, discipline=PERMISSIVE)
        assert binary_descent(h, [40], 0.5) is None

    def test_only_interval_and_full_queries(self):
        h = handle(uniform(128), seed=6, discipline=PERMISSIVE)
        binary_descent(h, [7], 0.5)
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
