import math

import numpy as np
import pytest

from condtest.distcore import make_distribution, neighborhood_mass
from condtest.errors import ZeroMassSet
from condtest.oracles import COND, OracleHandle, PERMISSIVE
from condtest.profiles import DESK
from condtest.subroutines import (
    classify,
    compare_budget,
    compare_points,
    estimate_neighborhood,
    neighborhood_schedule,
    ratio_in_window,
)


def handle(weights, seed=0):
    return OracleHandle(
        make_distribution(weights), model=COND, seed=seed, discipline=PERMISSIVE
    )


class TestCompare:
    def test_budget_formula(self):
        assert compare_budget(0.1, 2.0, 0.1, DESK) == math.ceil(
            3.0 * 2.0 * math.log(20.0) / 0.01
        )
        cap = DESK["compare_max_draws"]
        assert compare_budget(1e-12, 1e6, 1e-9, DESK) == int(cap)

    def test_balanced_pair_gives_ratio_near_one(self):
        h = handle(np.ones(16), seed=1)
        low, high, rho = compare_points(h, 1, 2, compare_budget(0.1, 2.0, 0.01), 2.0)
        assert not (low or high)
        assert rho == pytest.approx(1.0, rel=0.15)

    def test_heavy_y_gives_high(self):
        w = np.ones(16)
        w[1] = 1000.0
        h = handle(w, seed=2)
        low, high, rho = compare_points(h, 1, 2, compare_budget(0.1, 2.0, 0.01), 2.0)
        assert high and not low and math.isnan(rho)

    def test_light_y_gives_low(self):
        w = np.ones(16)
        w[1] = 1e-4
        h = handle(w, seed=3)
        low, high, rho = compare_points(h, 1, 2, compare_budget(0.1, 2.0, 0.01), 2.0)
        assert low and not high and math.isnan(rho)

    @pytest.mark.parametrize("K", [2.0, 4.0])
    @pytest.mark.parametrize("wy, answer", [
        (1e-4, "low"), (0.5, "ratio"), (1.0, "ratio"), (2.0, "ratio"),
        (1000.0, "high")])
    def test_answers_as_classify_on_the_pair_kernel(self, K, wy, answer):
        # compare_points is classify's one-element readout of
        # draw_pair_counts: the same draws, bits and charges.
        w = np.ones(16)
        w[1] = wy
        m = compare_budget(0.1, K, 0.01)
        for seed in range(5):
            h1, h2 = handle(w, seed), handle(w, seed)
            low, high, rho = compare_points(h1, 1, 2, m, K)
            lows, highs, rhos = classify(h2.draw_pair_counts(1, [2], m), m, K)
            assert (type(low), type(high), type(rho)) == (bool, bool, float)
            assert (low, high) == (lows[0], highs[0])
            assert rho == rhos[0] or math.isnan(rho) and math.isnan(rhos[0])
            assert {"low": low, "high": high, "ratio": not math.isnan(rho)}[answer]
            assert h1.ledger.as_dict() == h2.ledger.as_dict()
            assert h1.rng.bit_generator.state == h2.rng.bit_generator.state

    def test_zero_mass_union_raises(self):
        h = handle([1, 0, 0, 1])
        with pytest.raises(ZeroMassSet):
            compare_points(h, 2, 3, compare_budget(0.1, 2.0, 0.1), 2.0)

    def test_queries_land_in_one_column(self):
        h = handle(np.ones(8), seed=6)
        m = compare_budget(0.2, 2.0, 0.2)
        compare_points(h, 1, 5, m, 2.0)
        assert h.ledger.pcond_count == m
        assert h.ledger.total == m


class TestRatioWindow:
    def test_closed_boundaries(self):
        hi = 1.0 + 0.5 + 0.1 / 2.0
        rho = np.array([hi, 1.0 / hi, 1.0, hi + 1e-9, np.nextafter(1.0 / hi, 0.0)])
        assert ratio_in_window(rho, 0.5, 0.1).tolist() == [
            True, True, True, False, False]

    def test_low_and_high_are_outside(self):
        # classify marks Low and High outcomes with NaN in rho.
        low, high, rho = classify(np.array([0, 50, 100]), 100, 4.0)
        assert low.tolist() == [True, False, False]
        assert high.tolist() == [False, False, True]
        assert ratio_in_window(rho, 0.5, 0.1).tolist() == [False, True, False]
        assert not ratio_in_window(np.array([np.nan]), 0.5, 0.1).any()


def neighborhood_grid(kappa, beta, eta, delta):
    """neighborhood_schedule's (theta, r): the radius grid's step and size."""
    return neighborhood_schedule(kappa, beta, eta, delta, 400, 0.02, 1e-4)[1:3]


class TestNeighborhoodGrid:
    def test_values(self):
        theta, r = neighborhood_grid(0.25, 0.1, 0.2, 0.5)
        assert theta == pytest.approx(0.25 * 0.2 * 0.1 * 0.5 / 64.0)
        assert r == int(round(64.0 / (0.2 * 0.1 * 0.5)))


# kappa = beta = eta = delta = 0.25, with desk's find_reference cap
# and floors.
DESK_EN = neighborhood_schedule(0.25, 0.25, 0.25, 0.25, 400, 0.02, 1e-4)


class TestNeighborhoodSchedule:
    def test_values(self):
        theta, r = 0.25**4 / 64.0, int(round(64.0 / 0.25**3))
        size = math.ceil(2.0 * math.log(16.0) / 0.25**3)
        assert DESK_EN == (0.25, theta, r, size,
                           compare_budget(max(theta / 4.0, 0.02), 4.0,
                                          max(0.25 / (4.0 * size), 1e-4)))

    def test_sample_capped(self):
        assert neighborhood_schedule(0.25, 0.25, 0.25, 0.25, 7, 0.02, 1e-4).size == 7


class TestEstimateNeighborhood:
    def test_uniform_everything_inside(self):
        h = handle(np.ones(64), seed=7)
        en = estimate_neighborhood(h, 5, DESK_EN)
        assert en.w_hat == 1.0
        assert 0.25 < en.alpha < 0.5

    def test_isolated_point(self):
        w = np.ones(64)
        w[0] = 10000.0
        h = handle(w, seed=8)
        en = estimate_neighborhood(h, 1, DESK_EN)
        # Neighborhood of the huge point holds only itself: weight ~ 10000/10063.
        assert en.w_hat > 0.9

    def test_alpha_strictly_inside_doubling_range(self):
        h = handle(np.ones(16), seed=9)
        for seed in range(30):
            h = handle(np.ones(16), seed=seed)
            en = estimate_neighborhood(
                h, 1, neighborhood_schedule(0.2, 0.3, 0.3, 0.3, 400, 0.02, 1e-4))
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
