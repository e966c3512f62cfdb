"""Every tester's schedule, called without an oracle.

A schedule is a pure function of (n, eps, profile): it names every
sample size, draw budget, cap, floor and window one run of its tester
uses, before anything is drawn. These tests call each one on a small
grid under both presets.
"""

import tracemalloc

import numpy as np
import pytest

from condtest import distance, equality, identity, interval, uniformity
from condtest.distcore import bucketize, uniform
from condtest.profiles import DESK, THEORETICAL

SCHEDULES = {
    "pcond_uniform": lambda n, eps, profile: uniformity.schedule(eps, profile),
    "icond_uniform": interval.schedule,
    "pcond_known": identity.pcond_schedule,
    "cond_known": identity.cond_schedule,
    "pcond_equality": equality.pcond_schedule,
    "eval_equality": equality.eval_schedule,
    "dist_uniformity": distance.schedule,
}

# One and two points too, where log2 N is 0 and 1.
GRID = [(profile, n, eps) for profile in (DESK, THEORETICAL)
        for n in (2**8, 2**10) for eps in (0.25, 0.5)] + [
    (profile, n, 0.5) for profile in (DESK, THEORETICAL) for n in (1, 2)]


def fields(sched):
    """(name, type hint, value) for each field of a schedule, the fields
    of a nested one in its place."""
    for name, value in zip(sched._fields, sched):
        if hasattr(value, "_fields"):
            yield from fields(value)
        else:
            yield name, type(sched).__annotations__[name], value


@pytest.mark.parametrize("tester", sorted(SCHEDULES))
@pytest.mark.parametrize("profile, n, eps", GRID)
def test_every_schedule_is_pure_and_positive(tester, profile, n, eps):
    sched = SCHEDULES[tester](n, eps, profile)
    assert sched == SCHEDULES[tester](n, eps, profile)
    for name, hint, value in fields(sched):
        if hint in (int, "int"):
            assert type(value) is int and value >= 1, name
        # Windows and per-stage tuples too: every number finite and > 0.
        flat = np.asarray(value, dtype=float).ravel()
        assert (np.isfinite(flat) & (flat > 0)).all(), name


@pytest.mark.parametrize("profile", [DESK, THEORETICAL])
@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_query_budget_is_the_schedules_sum(profile, eps):
    q, stages = uniformity.schedule(eps, profile)
    draws = sum(s_j for s_j, _, _ in stages)
    compared = sum(q * 2 * s_j * m_j for s_j, _, m_j in stages)
    assert uniformity.query_budget(eps, profile) == draws + compared


@pytest.mark.parametrize("n", [2**8, 340, 2**10])
@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_pcond_known_counts_bucketize_buckets(n, eps):
    sched = identity.pcond_schedule(n, eps)
    assert sched.b == bucketize(uniform(n), sched.eta).b


def test_cond_known_schedule_is_free_of_n():
    assert identity.cond_schedule(2**8, 0.5) == identity.cond_schedule(2**40, 0.5)


def test_theoretical_sample_sizes_come_out_with_nothing_drawn():
    """The neighborhood samples that no memory holds under theoretical,
    at N = 2^8 and eps = 0.5, are read off the schedules in a few KB."""
    tracemalloc.start()
    try:
        dist = distance.schedule(2**8, 0.5, THEORETICAL)
        eq = equality.pcond_schedule(2**8, 0.5, THEORETICAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.en.size == 641_193_171
    assert eq.en.size == THEORETICAL["eq_en_sample_cap"] == 10**9
    assert peak < 64 * 1024
