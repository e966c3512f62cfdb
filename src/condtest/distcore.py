"""Exact computations on explicit discrete distributions.

Everything here is deterministic: construction and normalization,
conditional pmfs, total variation distance, weight-neighborhood
masses, the uniformity defect vector psi, the light tail, and the
dyadic bucket decomposition the pair-query identity tester screens
with. The randomized components are validated against these
functions.

The domain is 1..N throughout the public API.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadQuerySet,
    DomainMismatch,
    NegativeWeight,
    NonFiniteWeight,
    SpecParseError,
    ZeroMassSet,
    ZeroTotalMass,
)


FULL = "full"
PAIR = "pair"
INTERVAL = "interval"
EXPLICIT = "explicit"


class QuerySet:
    """A subset of 1..N in one of four shapes.

    Shapes: full domain, pair {i,j}, interval [a,b], or an explicit
    strictly increasing index list. The shape matters because the
    restricted oracle models only accept certain shapes.
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
        if i == j:
            raise BadQuerySet("pair needs two distinct indices")
        if i > j:
            i, j = j, i
        if i < 1:
            raise BadQuerySet("indices start at 1")
        return cls(PAIR, a=i, b=j)

    @classmethod
    def interval(cls, a, b):
        if not (1 <= a <= b):
            raise BadQuerySet("need 1 <= a <= b")
        return cls(INTERVAL, a=a, b=b)

    @classmethod
    def explicit(cls, indices):
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise BadQuerySet("empty query set")
        if idx[0] < 1:
            raise BadQuerySet("indices start at 1")
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
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

    def size(self, n):
        if self.shape == FULL:
            return n
        if self.shape == PAIR:
            return 2
        if self.shape == INTERVAL:
            return self.b - self.a + 1
        return int(self.indices.size)

    def contains(self, i, n):
        if self.shape == FULL:
            return 1 <= i <= n
        if self.shape == PAIR:
            return i == self.a or i == self.b
        if self.shape == INTERVAL:
            return self.a <= i <= self.b
        pos = np.searchsorted(self.indices, i)
        return pos < self.indices.size and self.indices[pos] == i

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
    """An explicit pmf over 1..N, normalized at construction.

    weights is a read-only numpy array indexed 0..N-1 for point 1..N.
    prefix[k] = sum of the first k weights, so mass of interval [a,b]
    is prefix[b]-prefix[a-1].
    """

    __slots__ = ("weights", "n", "prefix", "total")

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ZeroTotalMass("need at least one weight")
        if not np.all(np.isfinite(w)):
            raise NonFiniteWeight("weights must be finite")
        if np.any(w < 0):
            raise NegativeWeight("weights must be non-negative")
        s = float(w.sum())
        if s <= 0:
            raise ZeroTotalMass("weights sum to zero")
        w = w / s
        w.setflags(write=False)
        self.weights = w
        self.n = int(w.size)
        self.prefix = np.empty(w.size + 1)
        self.prefix[0] = 0.0
        np.cumsum(w, out=self.prefix[1:])
        self.prefix.setflags(write=False)
        self.total = float(w.sum())

    def weight(self, i):
        """D(i), 1-based."""
        return float(self.weights[i - 1])

    def mass(self, s: QuerySet):
        """D(S)."""
        if s.shape == FULL:
            return 1.0
        if s.shape == PAIR:
            return float(self.weights[s.a - 1] + self.weights[s.b - 1])
        if s.shape == INTERVAL:
            return float(self.prefix[s.b] - self.prefix[s.a - 1])
        return float(self.weights[s.indices - 1].sum())

    def __eq__(self, other):
        return isinstance(other, Distribution) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self):
        return hash(self.weights.tobytes())

    def __repr__(self):
        return f"Distribution(n={self.n})"


def make_distribution(weights) -> Distribution:
    return Distribution(weights)


def uniform(n) -> Distribution:
    if n < 1:
        raise ZeroTotalMass("need at least one weight")
    return Distribution(np.full(n, 1.0 / n))


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
    [2^(j-1) eta/N, 2^j eta/N). b = ceil(log2(N/eta)+1)+1 buckets total.
    """

    bucket_index_of: np.ndarray  # bucket id per point, 0-based positions
    bucket_bounds: list  # per-bucket (lo, hi) weight interval

    @property
    def b(self):
        return len(self.bucket_bounds)

    def bucket_mass(self, d: Distribution, j) -> float:
        return float(d.weights[self.bucket_index_of == j].sum())


def bucketize(d: Distribution, eta: float) -> BucketDecomposition:
    n = d.n
    jmax = math.ceil(math.log2(n / eta) + 1)
    edges = [0.0] + [2.0 ** (j - 1) * eta / n for j in range(1, jmax + 1)]
    edges.append(math.inf)
    ids = np.searchsorted(np.asarray(edges[1:]), d.weights, side="right")
    bounds = [(edges[k], edges[k + 1]) for k in range(len(edges) - 1)]
    return BucketDecomposition(ids.astype(np.int64), bounds)


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
        try:
            return Distribution(doc["weights"])
        except (NegativeWeight, NonFiniteWeight, ZeroTotalMass, ValueError) as e:
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
