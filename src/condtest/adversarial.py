"""Hard-instance generators.

Three families of far-from-reference distributions with exactly known
total variation distances, plus seeded random wrappers for drawing
from each family. All constructions are rational, so mass sums and
distances are exact up to float rounding.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from .distcore import MAX_WEIGHTS, Distribution, make_distribution, size_rule
from .errors import (
    BadBlockGeometry,
    BadGeneratorParam,
    OddN,
    SpecParseError,
    as_integer,
)

UP_DOWN = "up_down"
DOWN_UP = "down_up"


def _check_eps(eps):
    if isinstance(eps, bool) or not (isinstance(eps, Real) and 0.0 <= eps <= 0.5):
        raise BadGeneratorParam(f"eps must lie in [0, 1/2], got {eps!r}")


def _up_flags(profile, length, what):
    """A profile of length flags (length named what) as a bool array,
    True where the flag is up_down; BadGeneratorParam for anything else."""
    if not hasattr(profile, "__len__"):
        raise BadGeneratorParam(f"profile must be a sequence of flags, got {profile!r}")
    if len(profile) != length:
        raise BadGeneratorParam(f"profile must have length {what}={length}")
    for flag in profile:
        if flag != UP_DOWN and flag != DOWN_UP:
            raise BadGeneratorParam(f"bad profile flag {flag!r}")
    return np.array([flag == UP_DOWN for flag in profile], dtype=bool)


def gen_half_split(n: int, eps: float) -> Distribution:
    """Left half (1+2eps)/n, right half (1-2eps)/n; distance from
    uniform exactly eps."""
    n = as_integer(n, "n", BadGeneratorParam)
    with size_rule("half_split", n):
        if n < 2:
            raise BadGeneratorParam(f"n={n} must be at least 2")
        if n % 2:
            raise OddN(f"n={n} must be even")
        _check_eps(eps)
        return make_distribution(np.repeat([(1.0 + 2.0 * eps) / n, (1.0 - 2.0 * eps) / n],
                                           n // 2))


def staircase_domain_size(k: int, r: int) -> int:
    """k + k^2 + ... + k^(2r), the points of a staircase."""
    return sum(k**i for i in range(1, 2 * r + 1))


def _staircase_size(k, r):
    """k and r as checked ints, and the domain size the size rule reads:
    the staircase's, with k capped at MAX_WEIGHTS + 1 and r at 32. Its
    last bucket alone holds k^(2r) >= 2^(2r) points, so where a cap
    binds the size is past MAX_WEIGHTS, as the true one is, and past
    2^64, where size_rule names it as a lower bound. So the sum has at
    most 64 terms of at most 2^3840, however large k and r are."""
    k = as_integer(k, "k", BadGeneratorParam)
    r = as_integer(r, "r", BadGeneratorParam)
    if k < 2 or r < 1:
        raise BadGeneratorParam("need k >= 2 and r >= 1")
    return k, r, staircase_domain_size(min(k, MAX_WEIGHTS + 1), min(r, 32))


def gen_staircase(k: int, r: int, profile=None) -> Distribution:
    """Geometric staircase of 2r buckets, bucket i holding k^i points.

    profile=None gives the reference shape: every bucket has mass
    1/(2r), spread uniformly inside. A profile is a length-r vector of
    "up_down"/"down_up" flags; flag i shifts mass within bucket pair
    (2i-1, 2i) to (3/(4r), 1/(4r)) or the reverse. A fully perturbed
    staircase sits at distance exactly 1/4 from the reference shape.
    """
    k, r, n = _staircase_size(k, r)
    with size_rule("staircase", n):
        masses = np.full(2 * r, 1.0 / (2.0 * r))
        if profile is not None:
            up = _up_flags(profile, r, "r")
            masses[0::2] = np.where(up, 3.0 / (4.0 * r), 1.0 / (4.0 * r))
            masses[1::2] = np.where(up, 1.0 / (4.0 * r), 3.0 / (4.0 * r))
        sizes = k ** np.arange(1, 2 * r + 1)
        return make_distribution(np.repeat(masses / sizes, sizes))


def gen_block_profile(n: int, x: int, offset: int, profile, eps: float) -> Distribution:
    """2^x equal blocks, each with a heavy and a light half per its
    profile flag, the whole pattern rotated by offset; distance from
    uniform exactly eps."""
    n = as_integer(n, "n", BadGeneratorParam)
    x = as_integer(x, "x", BadGeneratorParam)
    offset = as_integer(offset, "offset", BadGeneratorParam)
    with size_rule("block_profile", n):
        if x not in valid_block_exponents(n):
            raise BadBlockGeometry(f"x={x} invalid for n={n}: 2^(x+1) must divide n")
        up = _up_flags(profile, 2**x, "2^x")
        _check_eps(eps)
        hi = (1.0 + 2.0 * eps) / n
        lo = (1.0 - 2.0 * eps) / n
        halves = np.column_stack((np.where(up, hi, lo), np.where(up, lo, hi))).ravel()
        return make_distribution(np.roll(np.repeat(halves, n >> (x + 1)), offset % n))


# Seeded random wrappers --------------------------------------------


def rand_profile(rng, length):
    return [UP_DOWN if rng.random() < 0.5 else DOWN_UP for _ in range(length)]


def rand_staircase(k: int, r: int, rng) -> Distribution:
    k, r, n = _staircase_size(k, r)
    with size_rule("staircase", n):
        return gen_staircase(k, r, rand_profile(rng, r))


def valid_block_exponents(n):
    """The one block geometry rule: 2^x blocks of n points have an even
    size of at least 2 exactly when 2^(x+1) divides n, so the valid x
    are those below the exponent of the largest power of two dividing
    n > 0 (n & -n)."""
    return list(range((n & -n).bit_length() - 1 if n > 0 else 0))


def rand_block_profile(n: int, eps: float, rng, x=None) -> Distribution:
    n = as_integer(n, "n", BadGeneratorParam)
    if x is not None:
        x = as_integer(x, "x", BadGeneratorParam)
    with size_rule("block_profile", n):
        choices = valid_block_exponents(n)
        if not choices:
            raise BadBlockGeometry(f"no valid block exponent for n={n}")
        if x is None:
            x = int(rng.choice(choices))
        elif x not in choices:
            raise BadBlockGeometry(f"x={x} invalid for n={n}: 2^(x+1) must divide n")
        offset = int(rng.integers(0, n))
        return gen_block_profile(n, x, offset, rand_profile(rng, 2**x), eps)


def _integer(name, value):
    """A spec's integer parameter as an int: an integer, or a float
    with no fractional part. Anything else, booleans included, is
    refused with SpecParseError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise SpecParseError(
        f"bad generator params: {name} must be an integer, got {value!r}")


GENERATORS = {
    "half_split": lambda n, eps: gen_half_split(_integer("n", n), eps),
    "staircase": lambda k, r, profile=None: gen_staircase(
        _integer("k", k), _integer("r", r), profile),
    "block_profile": lambda n, x, offset, profile, eps: gen_block_profile(
        _integer("n", n), _integer("x", x), _integer("offset", offset), profile,
        eps
    ),
}
