import math

import numpy as np
import pytest

from condtest.adversarial import gen_half_split
from condtest.distcore import light_set, make_distribution, uniform
from condtest.equality import (
    approx_eval,
    approx_eval_schedule,
    eval_schedule,
    eval_test_equality,
    pcond_schedule,
    pcond_test_equality,
)
from condtest.oracles import COND, OracleHandle, PCOND, PERMISSIVE, STRICT
from condtest.profiles import DESK
from condtest.uniformity import ACCEPT, REJECT


def budget(h):
    """approx_eval's budget at eps = 0.25 and delta = 0.2 on h's domain."""
    return approx_eval_schedule(h.dist.n, 0.25, 0.2, DESK)


def pcond_pair(d1, d2, seed=0):
    h1 = OracleHandle(d1, model=PCOND, seed=seed, discipline=PERMISSIVE)
    h2 = OracleHandle(d2, model=PCOND, seed=seed + 1000003, discipline=PERMISSIVE)
    return h1, h2


def cond_pair(d1, d2, seed=0):
    h1 = OracleHandle(d1, model=COND, seed=seed, discipline=STRICT)
    h2 = OracleHandle(d2, model=COND, seed=seed + 1000003, discipline=STRICT)
    return h1, h2


class TestSchedule:
    def test_frozen(self):
        _, t, s1, s2, _, _ = pcond_schedule(256, 0.5, DESK)
        assert t == math.ceil(0.25 * math.log2(512) / 0.25)
        assert s1 == math.ceil(0.5 * t / 0.25)
        assert s2 == math.ceil(0.5 * t * math.log2(t + 1.0) / 0.125)


class TestPcondEquality:
    def test_accepts_identical(self):
        u = uniform(256)
        acc = sum(
            pcond_test_equality(*pcond_pair(u, u, s), 0.5) == ACCEPT
            for s in range(15)
        )
        assert acc >= 13

    def test_rejects_half_split(self):
        u = uniform(256)
        hs = gen_half_split(256, 0.5)
        rej = sum(
            pcond_test_equality(*pcond_pair(u, hs, s), 0.5) == REJECT
            for s in range(15)
        )
        assert rej >= 13

    def test_rejects_disjoint_supports(self):
        d1 = make_distribution([1.0] * 8 + [0.0] * 8)
        d2 = make_distribution([0.0] * 8 + [1.0] * 8)
        rej = sum(
            pcond_test_equality(*pcond_pair(d1, d2, s), 0.5) == REJECT
            for s in range(10)
        )
        assert rej == 10


class TestEvalBudget:
    def test_eps_clamped(self):
        big = approx_eval_schedule(1024, 0.5, 0.2, DESK)
        clamped = approx_eval_schedule(1024, DESK["ae_eps_cap"] / 2.0, 0.2, DESK)
        assert big == clamped

    def test_tester_evaluates_at_eps_over_100(self):
        m, budget, window = eval_schedule(1024, 0.5, DESK)
        assert m == 10 and window == (1.0 - 0.5 / 8.0, 1.0 + 0.5 / 8.0)
        assert budget == approx_eval_schedule(1024, 0.005, 0.005, DESK)

    def test_round_cap_formula(self):
        M, kappa, eps, m = approx_eval_schedule(1024, 0.0625, 0.2, DESK)
        assert M == math.ceil(math.log2(1024) + math.log2(9.0 / 0.2) + 1.0)
        assert kappa == pytest.approx(eps / (M * M * math.log2(M / 0.2)))
        assert m <= DESK["ae_m_cap"]


class TestApproxEval:
    def test_uniform_accurate(self):
        h = OracleHandle(uniform(1024), model=COND, seed=0, discipline=STRICT)
        out = approx_eval(h, 17, budget(h))
        assert out is not None
        assert out == pytest.approx(1.0 / 1024, rel=0.25)

    def test_point_mass_early_exit(self):
        w = np.full(64, 1e-6)
        w[9] = 1.0
        h = OracleHandle(
            make_distribution(w), model=COND, seed=1, discipline=STRICT
        )
        out = approx_eval(h, 10, budget(h))
        assert out is not None
        assert out == pytest.approx(h.dist.weight(10), rel=0.05)

    def test_geometric_heavy_points_accurate(self):
        w = 0.5 ** np.arange(1, 65)
        d = make_distribution(w)
        h = OracleHandle(d, model=COND, seed=2, discipline=STRICT)
        for i in (1, 3, 5):
            out = approx_eval(h, i, budget(h))
            assert out is not None
            assert out == pytest.approx(d.weight(i), rel=0.25)

    def test_light_tail_gives_unknown_or_value(self):
        # A vanishing-weight point: no accuracy promise; the call must
        # still terminate in an estimate or None without tripping Strict.
        w = np.ones(256)
        w[0] = 1e-9
        d = make_distribution(w)
        light = set(light_set(d, 0.25).tolist())
        assert 1 in light
        h = OracleHandle(d, model=COND, seed=3, discipline=STRICT)
        out = approx_eval(h, 1, budget(h))
        assert out is None or isinstance(out, float)


class TestEvalEquality:
    def test_accepts_identical(self):
        u = uniform(256)
        acc = sum(
            eval_test_equality(*cond_pair(u, u, s), 0.5) == ACCEPT
            for s in range(15)
        )
        assert acc >= 13

    def test_rejects_half_split(self):
        u = uniform(256)
        hs = gen_half_split(256, 0.5)
        rej = sum(
            eval_test_equality(*cond_pair(u, hs, s), 0.5) == REJECT
            for s in range(15)
        )
        assert rej >= 13
