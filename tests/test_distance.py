import numpy as np
import pytest

from condtest.adversarial import gen_block_profile, gen_half_split
from condtest.distance import (
    ReferencePoint,
    estimate_distance_to_uniformity,
    find_reference,
    schedule,
)
from condtest.distcore import make_distribution, tv_distance, uniform
from condtest.oracles import OracleHandle, PCOND, STRICT


def handle(d, seed=0):
    return OracleHandle(d, model=PCOND, seed=seed, discipline=STRICT)


def search(h):
    """find_reference at kappa = 0.1, as estimate_distance_to_uniformity
    runs it at eps = 0.8."""
    return find_reference(h, schedule(h.dist.n, 0.8))


class TestFindReference:
    def test_uniform_yields_calibrated_point(self):
        n = 256
        ref = search(handle(uniform(n), seed=1))
        assert isinstance(ref, ReferencePoint)
        assert ref.d_hat == pytest.approx(1.0 / n, rel=0.25)
        assert ref.w_hat > 0.9
        assert 0.1 < ref.alpha < 0.2

    def test_near_point_mass_yields_none(self):
        # Nearly all mass on one point: sampled candidates are that
        # point, whose calibrated weight blows past the 2/(kappa N) cap.
        n = 256
        w = np.full(n, 1e-7)
        w[0] = 1.0
        d = make_distribution(w)
        assert search(handle(d, seed=2)) is None

    def test_gates_honour_kappa_range(self):
        ref = search(handle(gen_half_split(256, 0.125), seed=3))
        n = 256
        if ref is not None:
            assert 0.1 / (4 * n) <= ref.d_hat <= 2.0 / (0.1 * n)


class TestEstimateDistance:
    def test_output_in_unit_interval(self):
        for seed in range(5):
            v = estimate_distance_to_uniformity(
                handle(gen_half_split(64, 0.4), seed=seed), 0.25
            )
            assert 0.0 <= v <= 1.0

    def test_uniform_near_zero(self):
        vals = [
            estimate_distance_to_uniformity(handle(uniform(256), seed=s), 0.25)
            for s in range(10)
        ]
        assert sum(abs(v) <= 0.25 for v in vals) >= 9

    def test_half_split_accurate(self):
        d = gen_half_split(256, 0.25)
        exact = tv_distance(d, uniform(256))
        assert exact == pytest.approx(0.25)
        vals = [
            estimate_distance_to_uniformity(handle(d, seed=s), 0.25)
            for s in range(10)
        ]
        assert sum(abs(v - exact) <= 0.25 for v in vals) >= 9

    def test_block_profile_accurate(self):
        d = gen_block_profile(256, 3, 17, ["up_down", "down_up"] * 4, 0.25)
        exact = tv_distance(d, uniform(256))
        vals = [
            estimate_distance_to_uniformity(handle(d, seed=s), 0.25)
            for s in range(10)
        ]
        assert sum(abs(v - exact) <= 0.25 for v in vals) >= 9

    def test_no_reference_reports_full_distance(self):
        n = 128
        w = np.full(n, 1e-7)
        w[0] = 1.0
        d = make_distribution(w)
        # exact distance is close to 1; the NoPair fallback returns 1.
        assert estimate_distance_to_uniformity(handle(d, seed=4), 0.25) == 1.0

    def test_strict_discipline_holds(self):
        # STRICT handles are used throughout; reaching here without a
        # DisciplineViolation is the assertion.
        estimate_distance_to_uniformity(handle(uniform(64), seed=5), 0.25)
