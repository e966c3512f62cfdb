"""Exact computations on discrete distributions.

Everything here is deterministic: construction and normalization,
conditional pmfs, total variation distance, weight-neighborhood
masses, the uniformity defect vector psi, the light tail, and the
dyadic bucket decomposition the pair-query identity tester screens
with. The randomized components are validated against these
functions.

The domain is 1..N throughout the public API. A Distribution owns its
arithmetic: the oracles read it through n, weights, its masses (mass,
and pair_masses, interval_masses and set_masses in batches) and its
inverse-CDF draw points_at. Only this module reads the cumulative
masses behind them, through prefix_at and locate; an explicit
Distribution stores them as the array prefix. uniform(n) with n a
power of two stores no N-sized array: its weights is a read-only
zero-stride view of the one weight 1/n, it has no prefix, and it
computes prefix masses and the inverse CDF instead, with the same
floats and so the same draws as the explicit twin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadGeneratorParam,
    BadQuerySet,
    DomainMismatch,
    DomainTooLarge,
    NegativeWeight,
    NonFiniteWeight,
    SpecParseError,
    ZeroMassSet,
    ZeroTotalMass,
    as_integer,
)


FULL = "full"
PAIR = "pair"
INTERVAL = "interval"
EXPLICIT = "explicit"

# numpy refuses an array of more bytes than its largest index, so no
# Distribution has more float64 weights than this.
MAX_WEIGHTS = np.iinfo(np.intp).max // 8


def _index(i):
    """A query set's index i as an int: an int or a numpy integer, but no
    bool, else BadQuerySet. The factories test type(i) is int first, which
    skips the isinstance checks, as errors.check_draws does."""
    return as_integer(i, "a query set index", BadQuerySet)


class QuerySet:
    """A subset of 1..N in one of four shapes.

    Shapes: full domain, pair {i,j}, interval [a,b], or an explicit
    strictly increasing index list. The shape matters because the
    restricted oracle models only accept certain shapes. The factories
    refuse an index that is no integer, or a bool, with BadQuerySet.
    """

    __slots__ = ("shape", "a", "b", "indices")

    def __init__(self, shape, a=None, b=None, indices=None):
        self.shape = shape
        self.a = a
        self.b = b
        self.indices = indices

    @classmethod
    def full(cls):
        return cls(FULL)

    @classmethod
    def pair(cls, i, j):
        if type(i) is not int:
            i = _index(i)
        if type(j) is not int:
            j = _index(j)
        if i == j:
            raise BadQuerySet("pair needs two distinct indices")
        if i > j:
            i, j = j, i
        if i < 1:
            raise BadQuerySet("indices start at 1")
        return cls(PAIR, a=i, b=j)

    @classmethod
    def interval(cls, a, b):
        if type(a) is not int:
            a = _index(a)
        if type(b) is not int:
            b = _index(b)
        if not (1 <= a <= b):
            raise BadQuerySet("need 1 <= a <= b")
        return cls(INTERVAL, a=a, b=b)

    @classmethod
    def explicit(cls, indices):
        if isinstance(indices, (list, tuple)):
            # Each item on its own: np.asarray would take a bool or a float
            # among ints as a number.
            for i in indices:
                if type(i) is not int:
                    _index(i)
            try:
                idx = np.asarray(indices, dtype=np.int64)
            except OverflowError:
                raise BadQuerySet("explicit indices must fit in int64") from None
        else:
            idx = np.asarray(indices)
            if idx.ndim != 1 or idx.dtype.kind not in "iu":
                raise BadQuerySet(
                    f"explicit indices must be a 1-D array of integers, got {indices!r}")
            idx = idx.astype(np.int64, copy=False)
        if idx.size == 0:
            raise BadQuerySet("empty query set")
        if idx[0] < 1:
            raise BadQuerySet("indices start at 1")
        if idx.size > 1 and not (idx[1:] > idx[:-1]).all():
            raise BadQuerySet("explicit indices must be strictly increasing")
        return cls(EXPLICIT, indices=idx)

    def members(self, n):
        """All member indices as an int64 array, given the domain size."""
        if self.shape == FULL:
            return np.arange(1, n + 1, dtype=np.int64)
        if self.shape == PAIR:
            return np.array([self.a, self.b], dtype=np.int64)
        if self.shape == INTERVAL:
            return np.arange(self.a, self.b + 1, dtype=np.int64)
        return self.indices

    def max_index(self):
        if self.shape == FULL:
            return None
        if self.shape in (PAIR, INTERVAL):
            return self.b
        return int(self.indices[-1])

    def __repr__(self):
        if self.shape == FULL:
            return "QuerySet(full)"
        if self.shape == PAIR:
            return f"QuerySet(pair {self.a},{self.b})"
        if self.shape == INTERVAL:
            return f"QuerySet([{self.a},{self.b}])"
        return f"QuerySet(explicit, size {self.indices.size})"


class Distribution:
    """A pmf over 1..N, normalized at construction.

    weights is a read-only numpy array indexed 0..N-1 for point 1..N;
    it may be a zero-stride view (see uniform), so read it by index or
    slice rather than through its buffer. prefix_at(k) is the sum of
    the first k weights and locate inverts it; only an explicit
    distribution, one built from its weights, holds them in the array
    prefix. target_tables is None until identity.KnownTarget
    first wraps the distribution, then the tables it built from the
    weights; they hold no reference to the distribution, so they die
    with it.
    """

    __slots__ = ("weights", "n", "prefix", "total", "target_tables")

    def __init__(self, weights):
        # The one float64 copy it keeps, normalized in place.
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ZeroTotalMass("need at least one weight")
        with np.errstate(over="ignore", invalid="ignore"):
            s = float(w.sum())
        if not math.isfinite(s):
            raise NonFiniteWeight("weights must be finite, and so must their sum")
        if np.any(w < 0):
            raise NegativeWeight("weights must be non-negative")
        if s <= 0:
            raise ZeroTotalMass("weights sum to zero")
        w /= s
        w.setflags(write=False)
        self.weights = w
        self.n = int(w.size)
        self.prefix = np.empty(w.size + 1)
        self.prefix[0] = 0.0
        np.cumsum(w, out=self.prefix[1:])
        self.prefix.setflags(write=False)
        self.total = float(w.sum())
        self.target_tables = None

    def weight(self, i):
        """D(i), 1-based."""
        return float(self.weights[i - 1])

    def prefix_at(self, k):
        """The mass of 1..k, for an int k or an int array of them."""
        return self.prefix[k]

    def locate(self, u):
        """The inverse CDF: for each u in [0, 1] of the array, the
        number of points k >= 1 whose prefix mass prefix_at(k) is at
        most u."""
        return np.searchsorted(self.prefix[1:], u, side="right")

    def pair_masses(self, x, ys):
        """D({x, y}) for each y of ys; x and ys are ints or int arrays."""
        return self.weights[x - 1] + self.weights[ys - 1]

    def interval_masses(self, lo, hi):
        """D(lo..hi), for ints lo <= hi or int arrays of them."""
        return self.prefix_at(hi) - self.prefix_at(lo - 1)

    def set_masses(self, members, starts):
        """D(W_i) for strictly increasing sets W_i held back to back in
        the int array members, W_i from members[starts[i]]: each set's
        weights summed as one np.add.reduceat segment. A single set whose
        span equals its size is a run, read as a slice of the weights,
        which holds the gather's elements in its order."""
        first = int(members[0])
        if len(starts) == 1 and int(members[-1]) - first + 1 == members.size:
            held = self.weights[first - 1:first - 1 + members.size]
        else:
            held = self.weights[members - 1]
        return np.add.reduceat(held, starts)

    def mass(self, s: QuerySet):
        """D(S), from the rule for its shape. An explicit set of one
        point, compare_points' subset, has its point's weight as its
        mass: set_masses' one-term np.add.reduceat segment adds nothing
        to that term, so both give the same float, bit for bit."""
        if s.shape == FULL:
            return 1.0
        if s.shape == PAIR:
            return float(self.pair_masses(s.a, s.b))
        if s.shape == INTERVAL:
            return float(self.interval_masses(s.a, s.b))
        if s.indices.size == 1:
            return float(self.weights[s.indices.item(0) - 1])
        return float(self.set_masses(s.indices, [0])[0])

    def points_at(self, u, lo, hi, mass):
        """The points of lo..hi, of the given mass, that the uniform
        variates u (an array) pick: locate(prefix_at(lo - 1) + u * mass)
        + 1. locate searches with side="right", so a point it places in
        lo..hi has positive weight, and none lands below lo. One that
        ties or overshoots the prefix mass of hi lands above hi and goes
        to the last positive-weight point at or below hi."""
        out = self.locate(self.prefix_at(lo - 1) + u * mass) + 1
        over = out > hi
        if over.any():
            out[over] = lo + np.flatnonzero(self.weights[lo - 1:hi])[-1]
        return out

    def __repr__(self):
        return f"Distribution(n={self.n})"


class _DyadicUniform(Distribution):
    """The uniform distribution over 1..2^j, in O(1) memory.

    Its weight 2^-j, its prefix masses k 2^-j and every partial sum of
    its weights are exact floats, so each mass, draw and generator
    state equals that of the explicit Distribution(np.full(n, 1/n)).
    """

    __slots__ = ()

    def __init__(self, n):
        self.weights = np.broadcast_to(1.0 / n, (n,))
        self.n = n
        self.total = 1.0
        self.target_tables = None

    def prefix_at(self, k):
        return np.multiply(k, self.weights[0])

    def locate(self, u):
        # u * n is exact, and floor(u n) counts the k with k/n <= u.
        return np.floor(u * self.n).astype(np.int64)


def make_distribution(weights) -> Distribution:
    return Distribution(weights)


def uniform(n) -> Distribution:
    """The uniform distribution over 1..n; array-free when n is a power
    of two. Raises BadGeneratorParam when n is no integer, and
    DomainTooLarge past MAX_WEIGHTS or when the arrays of any other n
    do not fit in memory."""
    n = as_integer(n, "uniform's n", BadGeneratorParam)
    if n < 1:
        raise ZeroTotalMass("need at least one weight")
    too_large = DomainTooLarge(
        f"uniform({n}) needs arrays of {n} weights, which do not fit in memory")
    if n > MAX_WEIGHTS:
        raise too_large
    if n & (n - 1) == 0:
        return _DyadicUniform(n)
    try:
        return Distribution(np.broadcast_to(1.0 / n, (n,)))
    except MemoryError:
        raise too_large from None


def _check_domain(d: Distribution, s: QuerySet):
    m = s.max_index()
    if m is not None and m > d.n:
        raise BadQuerySet(f"index {m} outside 1..{d.n}")


def conditional_pmf(d: Distribution, s: QuerySet):
    """Pairs (i, D(i)/D(S)) for i in S. Raises ZeroMassSet when D(S)=0."""
    _check_domain(d, s)
    total = d.mass(s)
    if total <= 0:
        raise ZeroMassSet("conditioning on a zero-mass set")
    idx = s.members(d.n)
    return [(int(i), float(d.weights[i - 1]) / total) for i in idx]


def tv_distance(d1: Distribution, d2: Distribution) -> float:
    if d1.n != d2.n:
        raise DomainMismatch(f"{d1.n} vs {d2.n}")
    return 0.5 * float(np.abs(d1.weights - d2.weights).sum())


def neighborhood_mass(d: Distribution, x: int, gamma: float) -> float:
    """D({ y : D(x)/(1+gamma) <= D(y) <= (1+gamma) D(x) })."""
    wx = d.weight(x)
    lo = wx / (1.0 + gamma)
    hi = (1.0 + gamma) * wx
    mask = (d.weights >= lo) & (d.weights <= hi)
    return float(d.weights[mask].sum())


def psi_vector(d: Distribution):
    """Per-point uniformity defect: 1 - N*D(i) when below 1/N, else 0."""
    v = 1.0 - d.n * d.weights
    return np.maximum(v, 0.0)


def light_set(d: Distribution, tau: float):
    """The light tail: zero-weight points plus the lightest support
    points whose cumulative mass stays strictly below tau.

    Walks the support in increasing weight order and keeps the longest
    suffix (in decreasing-weight order this is a prefix of the tail)
    with total mass < tau. Ties in weight are broken by index.
    Returns a sorted index array.
    """
    order = np.argsort(d.weights, kind="stable")
    w_sorted = d.weights[order]
    csum = np.cumsum(w_sorted)
    keep = csum < tau
    out = order[keep] + 1
    zero = np.nonzero(d.weights == 0.0)[0] + 1
    return np.unique(np.concatenate((out, zero)))


@dataclass
class BucketDecomposition:
    """Dyadic weight buckets for identity testing against a known target.

    Bucket 0 holds points below eta/N; bucket j (j >= 1) holds
    [2^(j-1) eta/N, 2^j eta/N), the last one unbounded above;
    ceil(log2(N/eta)+1)+1 buckets total.
    """

    bucket_index_of: np.ndarray  # bucket id per point, 0-based positions
    masses: np.ndarray  # each bucket's mass under the bucketized distribution


def bucketize(d: Distribution, eta: float) -> BucketDecomposition:
    n = d.n
    jmax = math.ceil(math.log2(n / eta) + 1)
    edges = np.asarray([2.0 ** (j - 1) * eta / n for j in range(1, jmax + 1)])
    w = d.weights
    ids = np.searchsorted(edges, w, side="right").astype(np.int64)
    masses = np.array([float(w[ids == j].sum()) for j in range(jmax + 1)])
    return BucketDecomposition(ids, masses)


# Distribution spec files.


def load_spec(source) -> Distribution:
    """Build a Distribution from a spec dict, JSON string, or file path.

    Two kinds: {"kind": "explicit", "weights": [...]} and
    {"kind": "generator", "name": ..., "params": {...}}.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = None
        try:
            with open(source) as f:
                text = f.read()
        except (OSError, TypeError):
            text = source
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, TypeError) as e:
            raise SpecParseError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecParseError("spec must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "explicit":
        if "weights" not in doc:
            raise SpecParseError("explicit spec needs 'weights'")
        weights = doc["weights"]
        if not (isinstance(weights, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in weights)):
            raise SpecParseError("bad weights: 'weights' must be a flat list of numbers")
        try:
            return Distribution(weights)
        except (NegativeWeight, NonFiniteWeight, ZeroTotalMass, ValueError,
                OverflowError) as e:
            raise SpecParseError(f"bad weights: {e}") from e
    if kind == "generator":
        from . import adversarial

        name = doc.get("name")
        params = doc.get("params", {})
        if name not in adversarial.GENERATORS:
            raise SpecParseError(f"unknown generator {name!r}")
        try:
            return adversarial.GENERATORS[name](**params)
        except (TypeError, ValueError) as e:
            raise SpecParseError(f"bad generator params: {e}") from e
    raise SpecParseError(f"unknown spec kind {kind!r}")
