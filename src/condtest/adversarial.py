"""Hard-instance generators.

Three families of far-from-reference distributions with exactly known
total variation distances, plus seeded random wrappers for drawing
from each family. All constructions are rational, so mass sums and
distances are exact up to float rounding.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from .distcore import Distribution, make_distribution
from .errors import (
    BadBlockGeometry,
    BadGeneratorParam,
    DomainTooLarge,
    OddN,
    SpecParseError,
    as_integer,
)

UP_DOWN = "up_down"
DOWN_UP = "down_up"


def _check_eps(eps):
    if not (isinstance(eps, Real) and 0.0 <= eps <= 0.5):
        raise BadGeneratorParam(f"eps must lie in [0, 1/2], got {eps!r}")


def _check_flags(profile, length, what):
    """A profile must be a sequence of length flags (length named what)."""
    if not hasattr(profile, "__len__"):
        raise BadGeneratorParam(f"profile must be a sequence of flags, got {profile!r}")
    if len(profile) != length:
        raise BadGeneratorParam(f"profile must have length {what}={length}")


def _past_memory(name, n):
    return DomainTooLarge(
        f"{name} with n={n} needs arrays of {n} weights, which do not fit in memory")


def gen_half_split(n: int, eps: float) -> Distribution:
    """Left half (1+2eps)/n, right half (1-2eps)/n; distance from
    uniform exactly eps."""
    n = as_integer(n, "n", BadGeneratorParam)
    if n < 2:
        raise BadGeneratorParam(f"n={n} must be at least 2")
    if n % 2:
        raise OddN(f"n={n} must be even")
    _check_eps(eps)
    try:
        w = np.empty(n)
        w[: n // 2] = (1.0 + 2.0 * eps) / n
        w[n // 2 :] = (1.0 - 2.0 * eps) / n
        return make_distribution(w)
    except MemoryError:
        raise _past_memory("half_split", n) from None


def staircase_domain_size(k: int, r: int) -> int:
    return int(sum(k**i for i in range(1, 2 * r + 1)))


def gen_staircase(k: int, r: int, profile=None) -> Distribution:
    """Geometric staircase of 2r buckets, bucket i holding k^i points.

    profile=None gives the reference shape: every bucket has mass
    1/(2r), spread uniformly inside. A profile is a length-r vector of
    "up_down"/"down_up" flags; flag i shifts mass within bucket pair
    (2i-1, 2i) to (3/(4r), 1/(4r)) or the reverse. A fully perturbed
    staircase sits at distance exactly 1/4 from the reference shape.
    """
    k = as_integer(k, "k", BadGeneratorParam)
    r = as_integer(r, "r", BadGeneratorParam)
    if k < 2 or r < 1:
        raise BadGeneratorParam("need k >= 2 and r >= 1")
    n = staircase_domain_size(k, r)
    if n > 2**20:
        raise DomainTooLarge(f"domain size {n} exceeds 2^20")
    if profile is not None:
        _check_flags(profile, r, "r")
    masses = np.full(2 * r, 1.0 / (2.0 * r))
    if profile is not None:
        for i, flag in enumerate(profile):
            if flag == UP_DOWN:
                masses[2 * i] = 3.0 / (4.0 * r)
                masses[2 * i + 1] = 1.0 / (4.0 * r)
            elif flag == DOWN_UP:
                masses[2 * i] = 1.0 / (4.0 * r)
                masses[2 * i + 1] = 3.0 / (4.0 * r)
            else:
                raise BadGeneratorParam(f"bad profile flag {flag!r}")
    w = np.empty(n)
    pos = 0
    for i in range(1, 2 * r + 1):
        size = k**i
        w[pos : pos + size] = masses[i - 1] / size
        pos += size
    return make_distribution(w)


def gen_block_profile(n: int, x: int, offset: int, profile, eps: float) -> Distribution:
    """2^x equal blocks, each with a heavy and a light half per its
    profile flag, the whole pattern rotated by offset; distance from
    uniform exactly eps."""
    n = as_integer(n, "n", BadGeneratorParam)
    x = as_integer(x, "x", BadGeneratorParam)
    offset = as_integer(offset, "offset", BadGeneratorParam)
    b = 2**x
    if x < 0 or n % b:
        raise BadBlockGeometry(f"2^{x} blocks do not divide n={n}")
    delta = n // b
    if delta < 2 or delta % 2:
        raise BadBlockGeometry(f"block size {delta} must be even and >= 2")
    _check_flags(profile, b, "2^x")
    _check_eps(eps)
    hi = (1.0 + 2.0 * eps) / n
    lo = (1.0 - 2.0 * eps) / n
    try:
        base = np.empty(n)
        for j, flag in enumerate(profile):
            start = j * delta
            half = delta // 2
            if flag == UP_DOWN:
                base[start : start + half] = hi
                base[start + half : start + delta] = lo
            elif flag == DOWN_UP:
                base[start : start + half] = lo
                base[start + half : start + delta] = hi
            else:
                raise BadGeneratorParam(f"bad profile flag {flag!r}")
        return make_distribution(np.roll(base, offset % n))
    except MemoryError:
        raise _past_memory("block_profile", n) from None


# Seeded random wrappers --------------------------------------------


def rand_profile(rng, length):
    return [UP_DOWN if rng.random() < 0.5 else DOWN_UP for _ in range(length)]


def rand_staircase(k: int, r: int, rng) -> Distribution:
    k = as_integer(k, "k", BadGeneratorParam)
    r = as_integer(r, "r", BadGeneratorParam)
    return gen_staircase(k, r, rand_profile(rng, r))


def valid_block_exponents(n):
    """All x with 2^x blocks of even size >= 2 inside [1, n]."""
    out = []
    x = 0
    while True:
        b = 2**x
        if b > n // 2:
            break
        if n % b == 0 and (n // b) % 2 == 0 and n // b >= 2:
            out.append(x)
        x += 1
    return out

def rand_block_profile(n: int, eps: float, rng, x=None) -> Distribution:
    n = as_integer(n, "n", BadGeneratorParam)
    if x is not None:
        x = as_integer(x, "x", BadGeneratorParam)
    choices = valid_block_exponents(n)
    if not choices:
        raise BadBlockGeometry(f"no valid block exponent for n={n}")
    if x is None:
        x = int(rng.choice(choices))
    elif x not in choices:
        raise BadBlockGeometry(f"x={x} invalid for n={n}")
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
    "half_split": lambda n, eps: gen_half_split(_integer("n", n), float(eps)),
    "staircase": lambda k, r, profile=None: gen_staircase(
        _integer("k", k), _integer("r", r), profile),
    "block_profile": lambda n, x, offset, profile, eps: gen_block_profile(
        _integer("n", n), _integer("x", x), _integer("offset", offset), profile,
        float(eps)
    ),
}
