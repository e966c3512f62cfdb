"""Seed-for-seed identity on a fixed grid of (tester, spec, eps, seed).

Every trial's verdict, estimate and ledger must equal the values in
golden_grid.json, which were recorded from the code before the
shape-aware set operations and the vectorized witness partition
replaced their member-array and scalar-loop versions; the two 2^14
cond_known entries were added later, recorded from the code before
the target tables moved onto the target distribution, and the
block_256, half_256_eps_0.5 and point_mass_256 dist_uniformity entries
from the code before its comparisons moved onto the pair kernel. The
pcond_equality entries at seed 1 and the gap_256 ones were recorded
from the code before its cross loop moved onto the pair kernel, and
the eval_equality U_gap_256, gap_U_256 and U_bump_256 ones from the
code before approx_eval's first rounds were drawn in batches. The
cond_known U_U_4, U_U_8 and rand_rand_6 entries, which split into the
Heavy branch, were recorded from the code before that branch checked
its frequencies in array operations. The cond_known stair_stair
entries at seeds 1 and 2, pert_stair at seed 1 and rand_rand_4096 were
recorded from the code before the union comparisons built their
unions without np.insert. The eval_equality U_bump_256 entry at seed 0
and U_gap_256 at seed 4 were recorded after the batched calls stopped
rewinding the generator: a round-one batch that stops part way now
hands the rows it read to the next point's approx_eval, and the next
batch draws on from there, so these two trials' ledgers moved, with
their verdicts unchanged; tools/law_check.py holds the tester's law to
its parent's. The eval_equality U_bump_256 entry at seed 0, U_gap_256
at seeds 0 and 4 and gap_U_256 at seeds 0 and 1 were recorded after
approx_eval's round one became i*'s binomial count, with the rest of
that histogram drawn only when the count does not settle i*: the same
law, other random numbers, so these five trials' ledgers and four of
their verdicts moved, and tools/law_check.py held the tester's law to
its parent's. A change that claims to keep behaviour must keep this
test passing unchanged.

Regenerate the file (only when behaviour is meant to change) with

    PYTHONPATH=src python tests/test_golden_grid.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np

import condtest as ct
from condtest.harness import run_trial

GOLDEN = Path(__file__).with_name("golden_grid.json")


def _spiky(n, heavy, w_heavy):
    """Uniform background plus `heavy` points of weight w_heavy each:
    above-split points wide enough for the single-witness branch."""
    w = np.full(n, (1.0 - heavy * w_heavy) / (n - heavy))
    w[n - heavy:] = w_heavy
    return ct.make_distribution(w)


def _point_mass(n, w_rest):
    """Weight 1 on point 1 and w_rest on every other point, before
    normalising: no candidate passes find_reference's gates."""
    w = np.full(n, w_rest)
    w[0] = 1.0
    return ct.make_distribution(w)


def _gap(n, a, b):
    """Uniform on 1..n except weight zero on a..b, in the middle of the
    domain: a pair of two gap points has zero mass, and pairs with the
    points on either side of the gap do not."""
    w = np.ones(n)
    w[a - 1:b] = 0.0
    return ct.make_distribution(w)


def _bump(n, step, factor):
    """Uniform on 1..n with every step-th point, from 1, weighted by
    factor before normalising."""
    w = np.ones(n)
    w[::step] *= factor
    return ct.make_distribution(w)


def _random(n, seed):
    rng = np.random.default_rng(seed)
    return ct.make_distribution(rng.random(n) ** 2 + 1e-3)


def grid():
    """(name, tester, d1, second, eps, seeds); second is the target or
    the second oracle's distribution, or None."""
    u256, u1k, u4k = ct.uniform(256), ct.uniform(2**10), ct.uniform(2**12)
    u16k = ct.uniform(2**14)
    stair = ct.gen_staircase(2, 4)
    pert = ct.gen_staircase(2, 4, ["up_down"] * 4)
    block4k = ct.rand_block_profile(2**12, 0.5, np.random.default_rng(90), x=6)
    rand512 = _random(512, 7)
    rand4k = _random(2**12, 7)
    return [
        ("pcond_uniform/U_1024", "pcond_uniform", u1k, None, 0.5, (0, 1)),
        ("pcond_uniform/half_1024", "pcond_uniform",
         ct.gen_half_split(2**10, 0.5), None, 0.5, (0, 1)),
        ("icond_uniform/U_4096", "icond_uniform", u4k, None, 0.5, (0, 1)),
        ("icond_uniform/block_4096", "icond_uniform", block4k, None, 0.5,
         (0, 1)),
        ("icond_uniform/half_1000", "icond_uniform",
         ct.gen_half_split(1000, 0.25), None, 0.5, (2, 3)),
        ("pcond_known/U_U_1024", "pcond_known", u1k, u1k, 0.5, (0,)),
        ("pcond_known/pert_stair", "pcond_known", pert, stair, 0.5, (0, 1)),
        ("cond_known/U_U_1024", "cond_known", u1k, u1k, 0.5, (0, 1)),
        ("cond_known/stair_stair", "cond_known", stair, stair, 0.5, (0, 1, 2)),
        ("cond_known/pert_stair", "cond_known", pert, stair, 0.5, (0, 1)),
        ("cond_known/half_U_1024", "cond_known",
         ct.gen_half_split(2**10, 0.5), u1k, 0.5, (0,)),
        ("cond_known/rand_rand_512", "cond_known", rand512, rand512, 0.5,
         (0, 1, 2)),
        ("cond_known/U_rand_512", "cond_known", ct.uniform(512), rand512, 0.5,
         (0, 1)),
        ("cond_known/U_U_4096", "cond_known", u4k, u4k, 0.5, (0,)),
        # No two weights tie, so the labels stop rising at position 2 and
        # nearly every witness interval is wide and lies past that.
        ("cond_known/rand_rand_4096", "cond_known", rand4k, rand4k, 0.5, (0, 1)),
        # Fourteen-level witness chains, as in the large_n benchmark.
        ("cond_known/U_U_16384", "cond_known", u16k, u16k, 0.5, (0, 1)),
        ("cond_known/half_U_16384", "cond_known",
         ct.gen_half_split(2**14, 0.5), u16k, 0.5, (0, 1)),
        ("cond_known/spiky_256", "cond_known", _spiky(256, 3, 0.06),
         _spiky(256, 3, 0.06), 0.5, (0, 1)),
        # Every point weighs at least eps/10, or the prefix below the
        # split at most that: the Heavy branch.
        ("cond_known/U_U_4", "cond_known", ct.uniform(4), ct.uniform(4), 0.5, (0, 1)),
        ("cond_known/U_U_8", "cond_known", ct.uniform(8), ct.uniform(8), 0.5, (0, 1)),
        ("cond_known/rand_rand_6", "cond_known", _random(6, 0), _random(6, 0), 0.5,
         (0, 1)),
        ("pcond_equality/U_U_256", "pcond_equality", u256, u256, 0.5, (0, 1)),
        ("pcond_equality/U_half_256", "pcond_equality", u256,
         ct.gen_half_split(256, 0.5), 0.5, (0, 1)),
        # At seed 1 the first zero-mass pair comes after 48 live ones.
        ("pcond_equality/U_gap_256", "pcond_equality", u256,
         _gap(256, 97, 160), 0.5, (0, 1)),
        ("eval_equality/U_U_256", "eval_equality", u256, u256, 0.5, (0, 1)),
        ("eval_equality/U_half_256", "eval_equality", u256,
         ct.gen_half_split(256, 0.5), 0.5, (0,)),
        # D2 is zero on 100..110. Seed 0 rejects one repetition and seed 4
        # two, each after some points pass, at a point D2's first round
        # does not settle.
        ("eval_equality/U_gap_256", "eval_equality", u256, _gap(256, 100, 110),
         0.5, (0, 4)),
        # The same gap in D1: the point D1's first round does not settle
        # is still evaluated on D2.
        ("eval_equality/gap_U_256", "eval_equality", _gap(256, 100, 110), u256,
         0.5, (0, 1)),
        # D2 is 1.3 times heavier on every eighth point: every repetition
        # rejects on the window, after some points pass.
        ("eval_equality/U_bump_256", "eval_equality", u256, _bump(256, 8, 1.3),
         0.5, (0,)),
        ("dist_uniformity/U_256", "dist_uniformity", u256, None, 0.25, (0,)),
        ("dist_uniformity/half_256", "dist_uniformity",
         ct.gen_half_split(256, 0.25), None, 0.25, (0,)),
        # Ratios near the window edges, as in the pair_small_n benchmark.
        ("dist_uniformity/block_256", "dist_uniformity", ct.gen_block_profile(
            256, 4, 11, ["up_down", "down_up"] * 8, 0.25), None, 0.25, (0, 1)),
        # The right half has weight zero.
        ("dist_uniformity/half_256_eps_0.5", "dist_uniformity",
         ct.gen_half_split(256, 0.5), None, 0.5, (0, 1)),
        # find_reference returns None.
        ("dist_uniformity/point_mass_256", "dist_uniformity",
         _point_mass(256, 1e-6), None, 0.25, (0, 1)),
    ]


def trial_outcome(tester, d1, second, eps, seed):
    aux = second
    if ct.TESTERS[tester].second == "target":
        aux = ct.KnownTarget(second)
    rec = run_trial(tester, d1, aux, eps, seed)
    return {"verdict": rec.verdict, "estimate": rec.estimate,
            "ledger": rec.ledger.as_dict()}


def compute():
    return {
        f"{name}#{seed}": trial_outcome(tester, d1, second, eps, seed)
        for name, tester, d1, second, eps, seeds in grid()
        for seed in seeds
    }


def test_grid_covers_every_tester():
    assert {tester for _, tester, *_ in grid()} == set(ct.TESTERS)


def test_outcomes_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = compute()
    assert sorted(got) == sorted(want)
    mismatched = [key for key in want if got[key] != want[key]]
    assert not mismatched, {k: (got[k], want[k]) for k in mismatched}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_grid.py --write")
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
