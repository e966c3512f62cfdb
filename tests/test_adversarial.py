import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from condtest.adversarial import (
    GENERATORS,
    gen_block_profile,
    gen_half_split,
    gen_staircase,
    rand_block_profile,
    rand_profile,
    rand_staircase,
    staircase_domain_size,
    valid_block_exponents,
)
from condtest.distcore import load_spec, make_distribution, tv_distance, uniform
from condtest.errors import (
    BadBlockGeometry,
    BadGeneratorParam,
    CondtestError,
    DomainTooLarge,
    OddN,
    SpecParseError,
)

SRC = Path(__file__).resolve().parent.parent / "src"

class TestHalfSplit:
    def test_frozen_example(self):
        d = gen_half_split(4, 0.25)
        assert d.weights.tolist() == [0.375, 0.375, 0.125, 0.125]

    def test_zero_eps_is_uniform(self):
        assert tv_distance(gen_half_split(10, 0.0), uniform(10)) == 0.0

    def test_exact_distance(self):
        for n in (4, 1024):
            for eps in (0.1, 0.25, 0.5):
                d = gen_half_split(n, eps)
                assert tv_distance(d, uniform(n)) == pytest.approx(eps, abs=1e-12)

    def test_guards(self):
        with pytest.raises(OddN):
            gen_half_split(5, 0.25)
        with pytest.raises(ValueError):
            gen_half_split(4, 0.75)


class TestStaircase:
    def test_frozen_small(self):
        d = gen_staircase(2, 1)
        assert d.n == 6
        assert d.weights.tolist() == pytest.approx([0.25, 0.25] + [0.125] * 4)

    def test_bucket_masses(self):
        k, r = 3, 2
        d = gen_staircase(k, r)
        pos = 0
        for i in range(1, 2 * r + 1):
            size = k**i
            assert d.weights[pos : pos + size].sum() == pytest.approx(1 / (2 * r))
            # uniform inside the bucket
            assert np.allclose(d.weights[pos : pos + size],
                               d.weights[pos])
            pos += size

    def test_pair_mass_conserved_under_perturbation(self):
        k, r = 2, 3
        base = gen_staircase(k, r)
        pert = gen_staircase(k, r, ["up_down", "down_up", "up_down"])
        pos = 0
        for i in range(1, 2 * r + 1, 2):
            pair = k**i + k ** (i + 1)
            assert pert.weights[pos : pos + pair].sum() == pytest.approx(1 / r)
            pos += pair
        assert base.n == pert.n

    def test_perturbed_distance_closed_form(self):
        # Full perturbation moves 1/(4r) per pair: L1 totals 1/2, so
        # the distance is exactly 1/4 for every r.
        for k, r in ((2, 1), (2, 4), (3, 2)):
            base = gen_staircase(k, r)
            pert = gen_staircase(k, r, ["up_down"] * r)
            assert tv_distance(base, pert) == pytest.approx(0.25, abs=1e-12)
            assert tv_distance(base, pert) == pytest.approx(
                r * (1.0 / (4.0 * r)), abs=1e-12
            )

    def test_direction_flags_differ(self):
        up = gen_staircase(2, 1, ["up_down"])
        down = gen_staircase(2, 1, ["down_up"])
        assert up.weights[0] == pytest.approx(0.375)
        assert down.weights[0] == pytest.approx(0.125)
        assert tv_distance(up, down) == pytest.approx(0.5)

    def test_domain_size(self):
        assert staircase_domain_size(2, 4) == 510
        # Past 2^20 too: the size rule alone bounds a staircase.
        d = gen_staircase(2, 10)
        assert d.n == staircase_domain_size(2, 10) == 2_097_150

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gen_staircase(1, 2)
        with pytest.raises(ValueError):
            gen_staircase(2, 2, ["up_down"])
        with pytest.raises(ValueError):
            gen_staircase(2, 1, ["sideways"])


class TestBlockProfile:
    def test_frozen_example(self):
        d = gen_block_profile(8, 1, 0, ["up_down", "down_up"], 0.25)
        hi, lo = 1.5 / 8, 0.5 / 8
        assert d.weights.tolist() == pytest.approx(
            [hi, hi, lo, lo, lo, lo, hi, hi]
        )

    def test_rotation(self):
        base = gen_block_profile(8, 1, 0, ["up_down", "down_up"], 0.25)
        rot = gen_block_profile(8, 1, 3, ["up_down", "down_up"], 0.25)
        assert rot.weights.tolist() == np.roll(base.weights, 3).tolist()

    def test_exact_distance_random(self):
        rng = np.random.default_rng(9)
        n = 256
        for _ in range(10):
            x = int(rng.choice(valid_block_exponents(n)))
            offset = int(rng.integers(0, n))
            prof = rand_profile(rng, 2**x)
            d = gen_block_profile(n, x, offset, prof, 0.25)
            assert tv_distance(d, uniform(n)) == pytest.approx(0.25, abs=1e-12)

    def test_block_mass_conserved(self):
        n, x = 64, 3
        d = gen_block_profile(n, x, 0, ["up_down"] * 8, 0.5)
        delta = n // 2**x
        for j in range(2**x):
            assert d.weights[j * delta : (j + 1) * delta].sum() == pytest.approx(
                delta / n
            )

    def test_one_geometry_rule(self):
        """x is valid for n exactly when 2^x blocks of n points have an
        even size of at least 2, the rule as first written."""
        for n in range(-4, 200):
            sizes = {x: n // 2**x for x in range(10) if n > 0 and n % 2**x == 0}
            want = [x for x, size in sizes.items() if size >= 2 and size % 2 == 0]
            assert valid_block_exponents(n) == want
            if 0 < n <= 64 and n % 2 == 0:
                for x in range(-1, 7):
                    if x in want:
                        assert gen_block_profile(n, x, 0, ["up_down"] * 2**x, 0.25).n == n
                    else:
                        with pytest.raises(BadBlockGeometry):
                            gen_block_profile(n, x, 0, [], 0.25)

    def test_geometry_guards(self):
        with pytest.raises(BadBlockGeometry):
            gen_block_profile(10, 2, 0, ["up_down"] * 4, 0.25)  # 10/4 not integer
        with pytest.raises(BadBlockGeometry):
            gen_block_profile(12, 2, 0, ["up_down"] * 4, 0.25)  # block size 3 odd
        with pytest.raises(ValueError):
            gen_block_profile(16, 2, 0, ["up_down"] * 3, 0.25)


PAST_MEMORY = [
    ("gen_half_split(10**12, 0.25)", 10**12),
    ("gen_block_profile(10**12, 0, 0, ['up_down'], 0.25)", 10**12),
    ("gen_staircase(16, 4)", staircase_domain_size(16, 4)),
]


@pytest.mark.parametrize("call, n", PAST_MEMORY, ids=[call for call, _ in PAST_MEMORY])
def test_past_memory_names_n(call, n):
    """In a process whose address space is capped at 1.5 GB, so that
    the arrays are refused, not allocated."""
    code = "\n".join((
        "import resource",
        "cap = (1_500_000_000, resource.getrlimit(resource.RLIMIT_AS)[1])",
        "resource.setrlimit(resource.RLIMIT_AS, cap)",
        "from condtest.adversarial import gen_block_profile, gen_half_split, gen_staircase",
        "from condtest.errors import DomainTooLarge",
        "try:",
        f"    {call}",
        "except DomainTooLarge as e:",
        "    print(e)",
    ))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert f"n={n} " in out.stdout


@pytest.mark.parametrize("call, name", [
    (lambda n: gen_half_split(n, 0.25), "half_split"),
    (lambda n: gen_block_profile(n, 1, 0, ["up_down", "down_up"], 0.25), "block_profile"),
])
def test_past_numpy_arrays_names_n(call, name):
    """2^62 weights are more bytes than numpy can index, so it raises a
    bare ValueError unless the generator refuses first."""
    with pytest.raises(DomainTooLarge, match=f"{name} with n={2**62} "):
        call(2**62)


@pytest.mark.parametrize("call", [
    lambda rng: uniform(10**5000),
    lambda rng: gen_half_split(10**5000, 0.25),
    lambda rng: gen_block_profile(10**5000, 1, 0, ["up_down", "down_up"], 0.25),
    lambda rng: rand_block_profile(2**64, 0.25, rng),
    lambda rng: rand_staircase(2, 10**5, rng),
    lambda rng: gen_staircase(2, 10**5),
    lambda rng: gen_staircase(2, 31),
], ids=["uniform", "half_split", "block_profile", "rand_block_profile",
        "rand_staircase", "staircase", "staircase_past_numpy_arrays"])
def test_past_memory_refused_at_once(call):
    """Each builder applies the size rule before it computes anything
    from n or draws: a domain far past memory is refused in well under
    0.1 s, with a message that formats n at any size."""
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    start = time.perf_counter()
    with pytest.raises(DomainTooLarge, match="needs more weights than fit in memory"):
        call(rng)
    assert time.perf_counter() - start < 0.1
    assert rng.bit_generator.state == state


class TestParamRefusals:
    """Every out-of-range parameter raises BadGeneratorParam, a
    CondtestError that is also a ValueError."""

    @pytest.mark.parametrize("name, params, match", [
        ("half_split", {"n": 4, "eps": 0.7}, "eps must lie"),
        ("half_split", {"n": 4, "eps": float("nan")}, "eps must lie"),
        ("half_split", {"n": 0, "eps": 0.1}, "n=0 must be at least 2"),
        ("half_split", {"n": -2, "eps": 0.1}, "n=-2 must be at least 2"),
        ("half_split", {"n": 1, "eps": 0.1}, "n=1 must be at least 2"),
        ("staircase", {"k": 1, "r": 2}, "need k >= 2"),
        ("staircase", {"k": 2, "r": 0}, "need k >= 2 and r >= 1"),
        ("staircase", {"k": 2, "r": 2, "profile": ["up_down"]}, "length r=2"),
        ("staircase", {"k": 2, "r": 1, "profile": ["sideways"]}, "flag 'sideways'"),
        ("staircase", {"k": 2, "r": 1, "profile": 5}, "profile must be a sequence"),
        ("block_profile", {"n": 8, "x": 1, "offset": 0,
                           "profile": None, "eps": 0.25}, "profile must be a sequence"),
        ("block_profile", {"n": 16, "x": 2, "offset": 0,
                           "profile": ["up_down"] * 3, "eps": 0.25}, "length 2\\^x=4"),
        ("block_profile", {"n": 8, "x": 1, "offset": 0,
                           "profile": ["up_down", "down_up"], "eps": -0.1}, "eps must lie"),
        ("block_profile", {"n": 8, "x": 1, "offset": 0,
                           "profile": ["up_down", "left"], "eps": 0.25}, "flag 'left'"),
        ("half_split", {"n": 4, "eps": "x"}, "eps must lie in .* got 'x'"),
        ("half_split", {"n": 8, "eps": False}, "eps must lie in .* got False"),
        ("block_profile", {"n": 8, "x": 1, "offset": 0,
                           "profile": ["up_down", "down_up"], "eps": False}, "got False"),
    ])
    def test_refused_with_a_typed_error(self, name, params, match):
        with pytest.raises(BadGeneratorParam, match=match) as info:
            GENERATORS[name](**params)
        assert isinstance(info.value, CondtestError)
        assert isinstance(info.value, ValueError)
        with pytest.raises(SpecParseError, match=f"bad generator params: .*{match}"):
            load_spec({"kind": "generator", "name": name, "params": params})


    @pytest.mark.parametrize("call", [
        lambda: gen_staircase(2.5, 4),
        lambda: gen_staircase(2, 4.0),
        lambda: gen_staircase(True, 2),
        lambda: gen_half_split(8.0, 0.25),
        lambda: gen_half_split(np.float64(8), 0.25),
        lambda: gen_block_profile(256.0, 1, 0, ["up_down"] * 2, 0.25),
        lambda: gen_block_profile(256, 4.0, 0, ["up_down"] * 16, 0.25),
        lambda: gen_block_profile(256, 1, 0.5, ["up_down"] * 2, 0.25),
        lambda: rand_block_profile(4096.0, 0.25, np.random.default_rng(0)),
        lambda: rand_block_profile(4096, 0.25, np.random.default_rng(0), x=2.0),
        lambda: rand_staircase(2.5, 4, np.random.default_rng(0)),
        lambda: rand_staircase(2, 4.0, np.random.default_rng(0)),
    ], ids=["staircase_k", "staircase_r", "staircase_bool", "half_split_n",
            "half_split_numpy_float", "block_n", "block_x", "block_offset",
            "rand_block_n", "rand_block_x", "rand_staircase_k", "rand_staircase_r"])
    def test_integer_params_that_are_no_integers(self, call):
        with pytest.raises(BadGeneratorParam, match="must be an integer"):
            call()

    def test_numpy_integer_params_build_the_int_distribution(self):
        i = np.int64
        for a, b in [
            (gen_half_split(i(8), 0.25), gen_half_split(8, 0.25)),
            (gen_staircase(i(2), np.int32(3)), gen_staircase(2, 3)),
            (gen_block_profile(i(64), i(2), i(5), ["up_down", "down_up"] * 2, 0.25),
             gen_block_profile(64, 2, 5, ["up_down", "down_up"] * 2, 0.25)),
            (rand_block_profile(i(64), 0.25, np.random.default_rng(4), x=i(2)),
             rand_block_profile(64, 0.25, np.random.default_rng(4), x=2)),
            (rand_staircase(i(2), i(3), np.random.default_rng(4)),
             rand_staircase(2, 3, np.random.default_rng(4))),
        ]:
            assert a.weights.tobytes() == b.weights.tobytes()


def _loop_weights(name, *args):
    """The weights each generator first built, slice by slice in a loop:
    the reference its array code must match bit for bit."""
    if name == "half_split":
        n, eps = args
        w = np.empty(n)
        w[: n // 2] = (1.0 + 2.0 * eps) / n
        w[n // 2 :] = (1.0 - 2.0 * eps) / n
    elif name == "staircase":
        k, r, profile = args
        masses = np.full(2 * r, 1.0 / (2.0 * r))
        for i, flag in enumerate(profile or []):
            heavy, light = (2 * i, 2 * i + 1) if flag == "up_down" else (2 * i + 1, 2 * i)
            masses[heavy], masses[light] = 3.0 / (4.0 * r), 1.0 / (4.0 * r)
        w, pos = np.empty(staircase_domain_size(k, r)), 0
        for i in range(1, 2 * r + 1):
            w[pos : pos + k**i] = masses[i - 1] / k**i
            pos += k**i
    else:
        n, x, offset, profile, eps = args
        delta, hi, lo = n // 2**x, (1.0 + 2.0 * eps) / n, (1.0 - 2.0 * eps) / n
        w = np.empty(n)
        for j, flag in enumerate(profile):
            first, second = (hi, lo) if flag == "up_down" else (lo, hi)
            w[j * delta : j * delta + delta // 2] = first
            w[j * delta + delta // 2 : (j + 1) * delta] = second
        w = np.roll(w, offset % n)
    return make_distribution(w).weights


def test_generators_match_the_loop_reference():
    rng = np.random.default_rng(12)
    for n in (2, 8, 96, 1000):
        for eps in (0.0, 0.1, 0.25, 0.5):
            assert (gen_half_split(n, eps).weights.tobytes()
                    == _loop_weights("half_split", n, eps).tobytes())
    for k, r in ((2, 1), (2, 5), (3, 3), (7, 2)):
        for profile in (None, rand_profile(rng, r)):
            assert (gen_staircase(k, r, profile).weights.tobytes()
                    == _loop_weights("staircase", k, r, profile).tobytes())
    for n in (8, 96, 256):
        for x in valid_block_exponents(n):
            args = (n, x, int(rng.integers(0, 2 * n)), rand_profile(rng, 2**x), 0.3)
            assert (gen_block_profile(*args).weights.tobytes()
                    == _loop_weights("block_profile", *args).tobytes())


class TestRandomWrappers:
    def test_seed_reproducibility(self):
        a = rand_staircase(2, 3, np.random.default_rng(5))
        b = rand_staircase(2, 3, np.random.default_rng(5))
        assert np.array_equal(a.weights, b.weights)
        c = rand_block_profile(64, 0.25, np.random.default_rng(5))
        d = rand_block_profile(64, 0.25, np.random.default_rng(5))
        assert np.array_equal(c.weights, d.weights)

    def test_block_wrapper_distance(self):
        d = rand_block_profile(128, 0.5, np.random.default_rng(1))
        assert tv_distance(d, uniform(128)) == pytest.approx(0.5, abs=1e-12)

    def test_exponent_validation(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(BadBlockGeometry):
            rand_block_profile(64, 0.25, rng, x=6)  # size 1
        with pytest.raises(BadBlockGeometry):
            rand_block_profile(63, 0.25, rng)  # no even block size
        assert rng.bit_generator.state == state


class TestRegistry:
    def test_names_and_dispatch(self):
        assert set(GENERATORS) == {"half_split", "staircase", "block_profile"}
        d = GENERATORS["half_split"](n=4, eps=0.25)
        assert d.weights[0] == pytest.approx(0.375)
        d = GENERATORS["staircase"](k=2, r=1)
        assert d.n == 6
        d = GENERATORS["block_profile"](
            n=8, x=1, offset=0, profile=["up_down", "down_up"], eps=0.25
        )
        assert d.n == 8

    @pytest.mark.parametrize("name, params, bad", [
        ("half_split", {"n": 2.5, "eps": 0.25}, "n"),
        ("half_split", {"n": True, "eps": 0.25}, "n"),
        ("half_split", {"n": "4", "eps": 0.25}, "n"),
        ("staircase", {"k": 2.0, "r": 1.5}, "r"),
        ("staircase", {"k": False, "r": 1}, "k"),
        ("block_profile", {"n": 8, "x": 1.25, "offset": 0,
                           "profile": ["up_down", "down_up"], "eps": 0.25}, "x"),
        ("block_profile", {"n": 8, "x": 1, "offset": 0.5,
                           "profile": ["up_down", "down_up"], "eps": 0.25}, "offset"),
        ("block_profile", {"n": 8, "x": 1, "offset": float("nan"),
                           "profile": ["up_down", "down_up"], "eps": 0.25}, "offset"),
    ])
    def test_refuses_non_integer_params(self, name, params, bad):
        with pytest.raises(SpecParseError, match=f"{bad} must be an integer"):
            GENERATORS[name](**params)
        with pytest.raises(SpecParseError, match=f"{bad} must be an integer"):
            load_spec({"kind": "generator", "name": name, "params": params})

    def test_integral_floats_are_integers(self):
        assert np.array_equal(GENERATORS["half_split"](n=4.0, eps=0.25).weights,
                              gen_half_split(4, 0.25).weights)
        assert GENERATORS["staircase"](k=np.int64(2), r=1.0).n == 6
