import math

import pytest

from condtest.adversarial import gen_half_split
from condtest.distcore import make_distribution, uniform
from condtest.oracles import OracleHandle, PCOND, PERMISSIVE
from condtest.profiles import DESK
from condtest.subroutines import compare_budget
from condtest.uniformity import (
    ACCEPT,
    REJECT,
    pcond_test_uniform,
    query_budget,
    schedule,
)


def handle(d, seed=0):
    return OracleHandle(d, model=PCOND, seed=seed, discipline=PERMISSIVE)


class TestSchedule:
    def test_frozen_at_half(self):
        q, stages = schedule(0.5, DESK)
        assert q == 4
        # eps = 1/2 -> t = log2(8) + 1 = 4 stages
        assert len(stages) == 4
        sizes = [s for s, _, _ in stages]
        assert sizes == [8, 16, 32, 64]
        windows = [w for _, w, _ in stages]
        assert windows == pytest.approx(
            [2 ** (j - 5) * 0.5 / 4.0 for j in range(1, 5)]
        )
        # Each comparison at eta = the window and confidence exp(-3 t).
        assert [m for _, _, m in stages] == [
            compare_budget(w, 2.0, math.exp(-12.0)) for w in windows]

    def test_eps_rounded_down_to_power_of_two(self):
        assert schedule(0.7, DESK) == schedule(0.5, DESK)
        assert query_budget(0.7) == query_budget(0.5)

    def test_windows_capped_at_one(self):
        for _, w, _ in schedule(1.0, DESK).stages:
            assert w <= 1.0


class TestBudget:
    def test_ledger_matches_budget_exactly(self):
        for n, seed in ((10, 0), (1000, 1), (4096, 2)):
            h = handle(uniform(n), seed)
            pcond_test_uniform(h, 0.5)
            assert h.ledger.total == query_budget(0.5)

    def test_budget_on_rejecting_instance_too(self):
        h = handle(gen_half_split(100, 0.5), seed=3)
        assert pcond_test_uniform(h, 0.5) == REJECT
        assert h.ledger.total == query_budget(0.5)

    def test_budget_with_zero_mass_points(self):
        # Zero-mass pairs among the uniform picks burn the same budget.
        w = [1.0] * 50 + [0.0] * 50
        h = handle(make_distribution(w), seed=4)
        pcond_test_uniform(h, 0.5)
        assert h.ledger.total == query_budget(0.5)

    def test_independent_of_n(self):
        assert query_budget(0.25) == query_budget(0.25)
        totals = set()
        for n in (100, 10000):
            h = handle(uniform(n), seed=5)
            pcond_test_uniform(h, 0.25)
            totals.add(h.ledger.total)
        assert totals == {query_budget(0.25)}


class TestVerdicts:
    def test_singleton_domain_accepts_free(self):
        h = handle(uniform(1))
        assert pcond_test_uniform(h, 0.5) == ACCEPT
        assert h.ledger.total == 0

    def test_accepts_uniform(self):
        acc = sum(
            pcond_test_uniform(handle(uniform(500), seed=s), 0.5) == ACCEPT
            for s in range(20)
        )
        assert acc >= 18

    def test_rejects_half_split(self):
        d = gen_half_split(500, 0.5)
        rej = sum(
            pcond_test_uniform(handle(d, seed=s), 0.5) == REJECT
            for s in range(20)
        )
        assert rej >= 18

    def test_rejects_zero_mass_region(self):
        # Mass missing from half the domain: zero-mass pairs certify.
        d = make_distribution([1.0] * 8 + [0.0] * 8)
        rej = sum(
            pcond_test_uniform(handle(d, seed=s), 0.5) == REJECT
            for s in range(10)
        )
        assert rej >= 9
