"""Seedable, query-counting simulation of conditional sampling oracles.

An OracleHandle wraps a Distribution and one of four access models:

  SAMP   full-domain draws only
  PCOND  full-domain draws plus pairs
  ICOND  full-domain draws plus intervals
  COND   any query set

Every draw is counted in a per-shape ledger. Conditioning on a
zero-mass set raises ZeroMassSet, matching the oracle failure rule.
Under the default Strict discipline, any non-full-domain query set
must contain at least one point the oracle returned earlier; this
catches testers that condition on sets they have no business knowing
are non-empty. For r returned points the check costs O(1) on a pair,
O(log r) on an interval and O(k log r) on k explicit members, plus an
O(r log r) re-sort only after the returned points have grown.

Besides per-point draws the handle offers batched observations
(draw_many, draw_counts, draw_subset_count, burn). Each batch of m
draws is sampled in one shot from the exact joint distribution of m
iid conditional draws, so testers that only consume counts can afford
the full theoretical query budgets; draw_counts(given=(x, c)) draws
the rest of a histogram whose count c at x a draw_subset_count read.
draw_subset_counts makes k draw_subset_count observations, on k
pairs, intervals or unions {x} ∪ W_i, from one binomial call, with the
checks and charges of k scalar calls in order; where a tester stops
part way, reached names the leading ones charged. A batched call
costs 20-40 us for k up to 64, some ten scalar calls (U(1024),
tools/kernel_cost.py), so the testers make few, large calls. Every
mass and inverse-CDF draw, scalar or batched, is a Distribution method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distcore import (EXPLICIT, FULL, INTERVAL, PAIR, Distribution, QuerySet,
                       _check_domain, _index_array)
from .errors import (
    BadDrawCount,
    BadQuerySet,
    BadSeed,
    DisciplineViolation,
    IllegalShapeForModel,
    IncompatibleOracleModel,
    SetsNotDisjoint,
    ZeroMassSet,
    as_integer,
    check_draws,
)

SAMP = "samp"
COND = "cond"
PCOND = "pcond"
ICOND = "icond"

STRICT = "strict"
PERMISSIVE = "permissive"

_ALLOWED = {
    SAMP: (FULL,),
    PCOND: (FULL, PAIR),
    ICOND: (FULL, INTERVAL),
    COND: (FULL, PAIR, INTERVAL, EXPLICIT),
}

_UNTOUCHED = "conditioning on a set with no previously returned point"

# QueryLedger field per query shape, regardless of the handle's model.
_SHAPE_COLUMN = {FULL: "samp_count", PAIR: "pcond_count", INTERVAL: "icond_count",
                 EXPLICIT: "cond_count"}


def _inside(sub, s, n):
    """Whether the query set sub lies inside s, which lies inside 1..n."""
    if s.shape == PAIR and sub.shape == EXPLICIT and sub.indices.size == 1:
        return sub.indices.item(0) in (s.a, s.b)  # compare_points' subset, kept scalar
    if sub.shape == FULL:
        lo, hi, size = 1, n, n
    elif sub.shape == EXPLICIT:  # approx_eval's {i*} in 1..n reads two scalars
        lo, hi, size = int(sub.indices[0]), int(sub.indices[-1]), sub.indices.size
    else:
        lo, hi, size = sub.a, sub.b, sub.b - sub.a + 1 if sub.shape == INTERVAL else 2
    if s.shape == FULL:
        return hi <= n
    if s.shape == INTERVAL:
        return s.a <= lo and hi <= s.b
    own = s.members(n)
    return size <= own.size and bool(np.isin(sub.members(n), own).all())


def _meets(points, lo, hi):
    """Whether the sorted array points has an element in each [lo, hi]."""
    return (np.searchsorted(points, lo, side="left")
            < np.searchsorted(points, hi, side="right"))


@dataclass
class QueryLedger:
    samp_count: int = 0
    cond_count: int = 0
    pcond_count: int = 0
    icond_count: int = 0

    COLUMNS = (SAMP, COND, PCOND, ICOND)  # the order of the fields and of as_dict

    @property
    def total(self):
        return self.samp_count + self.cond_count + self.pcond_count + self.icond_count

    def counts(self):
        """The columns' counts, in COLUMNS order."""
        return self.samp_count, self.cond_count, self.pcond_count, self.icond_count

    def copy(self):
        return QueryLedger(*self.counts())

    def __add__(self, other):
        return QueryLedger(*(a + b for a, b in zip(self.counts(), other.counts())))

    def as_dict(self):
        return dict(zip(self.COLUMNS, self.counts()), total=self.total)


class OracleHandle:
    """Sampling front-end for one Distribution under one access model."""

    def __init__(self, dist: Distribution, model=COND, seed=0, discipline=STRICT):
        if model not in _ALLOWED:
            raise IncompatibleOracleModel(f"unknown model {model!r}")
        if discipline not in (STRICT, PERMISSIVE):
            raise IncompatibleOracleModel(f"unknown discipline {discipline!r}")
        self.dist = dist
        self.model = model
        self.seed = as_integer(seed, "seed", BadSeed) & 0xFFFFFFFFFFFFFFFF
        self.discipline = discipline
        self.rng = np.random.Generator(np.random.PCG64(self.seed))
        self.ledger = QueryLedger()
        self.returned_points = set()
        self._seen = np.empty(0, dtype=np.int64)

    # Validation ----------------------------------------------------

    def _allow(self, shape):
        if shape not in _ALLOWED[self.model]:
            raise IllegalShapeForModel(f"{self.model} oracle cannot take a {shape} set")

    def _check(self, s: QuerySet, m):
        check_draws(m)
        self._allow(s.shape)
        _check_domain(self.dist, s)
        if (self.discipline == STRICT and s.shape != FULL
                and not self._touches_returned(s)):
            raise DisciplineViolation(_UNTOUCHED)
        mass = self.dist.mass(s)
        if mass <= 0.0:
            raise ZeroMassSet("oracle failure: query set has zero mass")
        return mass

    def _sorted_returned(self):
        """returned_points sorted; the set only grows, so a new size means re-sort."""
        if self._seen.size != len(self.returned_points):
            self._seen = np.sort(np.fromiter(self.returned_points, np.int64,
                                             len(self.returned_points)))
        return self._seen

    def _touched(self, points):
        """Whether each of the points was returned before."""
        seen = self._sorted_returned()
        return _meets(seen, points, points)

    def _touches_returned(self, s: QuerySet):
        if s.shape == PAIR:
            return s.a in self.returned_points or s.b in self.returned_points
        seen = self._sorted_returned()
        if s.shape == INTERVAL:
            return bool(_meets(seen, s.a, s.b))
        return bool(self._touched(s.indices).any())

    def _count(self, shape, m):
        field = _SHAPE_COLUMN[shape]
        setattr(self.ledger, field, getattr(self.ledger, field) + m)

    # Drawing -------------------------------------------------------

    def draw(self, s: QuerySet) -> int:
        return int(self.draw_many(s, 1)[0])

    def draw_many(self, s: QuerySet, m: int):
        """m iid conditional draws, returned as an index array."""
        mass = self._check(s, m)
        d = self.dist
        if s.shape in (FULL, INTERVAL):
            lo, hi = (1, d.n) if s.shape == FULL else (s.a, s.b)
            out = d.points_at(self.rng.random(m), lo, hi, mass)
        else:
            idx = s.members(d.n)
            p = d.weights[idx - 1] / mass
            out = self.rng.choice(idx, size=m, p=p)
        self._count(s.shape, m)
        self.returned_points.update(out.tolist())
        return out

    def draw_counts(self, s: QuerySet, m: int, given=None):
        """Histogram of m iid conditional draws.

        Returns (indices, counts) where indices are the members of S
        with positive conditional probability. Equivalent in
        distribution to draw_many followed by counting, but one
        multinomial regardless of m.

        given=(x, c) completes an observation whose count c at x in S
        draw_subset_count(S, {x}, m) drew and charged: the other m - c
        draws are one multinomial on S without x, and nothing more is
        charged. Refused before anything is drawn: BadQuerySet for an x
        outside S, BadDrawCount for a c the count cannot take (outside
        0..m, above 0 at a zero-weight x, below m where x holds S's mass).
        """
        mass = self._check(s, m)
        idx = s.members(self.dist.n)
        w = self.dist.weights[idx - 1]
        support = w > 0
        idx = idx[support]
        p = w[support] / mass
        p = p / p.sum()
        if given is None:
            counts = self.rng.multinomial(int(m), p)
            self._count(s.shape, m)
        else:
            x, c = given
            if not _inside(QuerySet.explicit([x]), s, self.dist.n):
                raise BadQuerySet("the given point must lie in S")
            at, c = idx == x, as_integer(c, "c", BadDrawCount)
            if not (m if at.all() else 0) <= c <= (m if at.any() else 0):
                raise BadDrawCount(f"x's count of {m} draws cannot be {c}")
            rest = np.where(at, 0.0, p)
            counts = self.rng.multinomial(int(m) - c, rest / (rest.sum() or 1.0))
            counts[at] = c
        self.returned_points.update(idx[counts > 0].tolist())
        return idx, counts

    def draw_subset_count(self, s: QuerySet, subset: QuerySet, m: int) -> int:
        """Number of hits in `subset` among m iid conditional draws on S.

        A coarsened observation: only the hit count is revealed, so no
        returned points are recorded. One binomial regardless of m.
        """
        mass = self._check(s, m)
        if not _inside(subset, s, self.dist.n):
            raise BadQuerySet(f"the subset must lie inside S, in 1..{self.dist.n}")
        p = min(self.dist.mass(subset) / mass, 1.0)
        self._count(s.shape, m)
        return int(self.rng.binomial(int(m), p))

    def draw_subset_counts(self, shape, sets, m, reached=None):
        """draw_subset_count on k (set, subset) pairs in one call, by shape:

          PAIR      (x, ys): {x, ys[i]} against ys[i]; one x, or one per pair
          INTERVAL  (lo, hi, sub_lo, sub_hi): [lo[i], hi[i]] against [sub_lo[i], sub_hi[i]]
          EXPLICIT  (x, members, sizes): {x} ∪ W_i against W_i; members holds
                    the rising W_i back to back, sizes their lengths

        Every set is drawn in one binomial call but a zero-mass one, where the scalar
        call raises ZeroMassSet: it is neither drawn nor charged, and reads -1. Each
        other set is charged to its shape's column, a union with a one-point W_i as a
        pair; a batch of no wider W_i is checked as pairs. reached, if given, maps the
        k counts to the number of leading sets a caller going one at a time queries
        before it stops; only their counts are returned, and only they are charged.
        Refusals, before anything is drawn or charged, in order: BadQuerySet for any
        other shape; IllegalShapeForModel (for unions, once members and sizes are 1-D
        integers); BadQuerySet for arrays not 1-D integers of one length, an x no
        integer, a point outside 1..N, a subset interval outside its interval, or for
        unions no sets, a size below 1, sizes not summing to the members, then a W_i
        not rising; SetsNotDisjoint for x in its set; under STRICT,
        DisciplineViolation for a set with no returned point; BadDrawCount for m.
        """
        d, strict = self.dist, self.discipline == STRICT
        n_wide = 0
        if shape == EXPLICIT:
            x, members, sizes = sets
            members, sizes = _index_array(members), _index_array(sizes)
            if (0 < sizes.size == members.size and not isinstance(x, np.ndarray)
                    and np.count_nonzero(sizes == 1) == sizes.size):
                shape, sets = PAIR, (x, members)  # the pairs {x, W_i}
            else:
                wide = sizes > 1
                n_wide = int(np.count_nonzero(wide))
        elif shape not in (PAIR, INTERVAL):
            raise BadQuerySet(f"a batch holds pairs, intervals or unions, not {shape}")
        self._allow(PAIR if shape == EXPLICIT and not n_wide else shape)
        if shape == PAIR:
            x, ys = sets
            one = not isinstance(x, np.ndarray)
            ys = _index_array(ys)
            if one:
                x = as_integer(x, "x", BadQuerySet)
                x_bad = not 1 <= x <= d.n
            else:
                x = _index_array(x)
                x_bad = x.shape != ys.shape or x.size and (x.min() < 1 or x.max() > d.n)
            if x_bad or ys.size and (np.minimum.reduce(ys) < 1
                                     or np.maximum.reduce(ys) > d.n):
                raise BadQuerySet(f"pairs need two points in 1..{d.n}")
            if np.count_nonzero(ys == x):
                raise SetsNotDisjoint("a pair needs two distinct points")
            touched = not strict or (x in self.returned_points or self._touched(ys).all()
                                     if one else (self._touched(x) | self._touched(ys)).all())
            mass, sub_mass = d.pair_masses(x, ys), d.weights[ys - 1]
        elif shape == INTERVAL:
            lo, hi, sub_lo, sub_hi = map(_index_array, sets)
            if not lo.size == hi.size == sub_lo.size == sub_hi.size or lo.size and not (
                    lo.min() >= 1 and hi.max() <= d.n
                    and ((lo <= sub_lo) & (sub_lo <= sub_hi) & (sub_hi <= hi)).all()):
                raise BadQuerySet(f"k intervals and k subsets of them, in 1..{d.n}")
            touched = not strict or _meets(self._sorted_returned(), lo, hi).all()
            mass, sub_mass = d.interval_masses(lo, hi), d.interval_masses(sub_lo, sub_hi)
        else:
            x = as_integer(x, "x", BadQuerySet)
            ends = np.add.accumulate(sizes)
            if (sizes.size == 0 or sizes.min() < 1 or ends[-1] != members.size
                    or not 1 <= x <= d.n):
                raise BadQuerySet(f"unions need a point and non-empty sets in 1..{d.n}")
            starts, last = ends - sizes, ends - 1
            rising = members[1:] > members[:-1]
            rising[last[:-1]] = True
            # A rising W_i lies in 1..N when its first and last members do.
            if (np.count_nonzero(rising) < rising.size or min(members[starts].tolist()) < 1
                    or max(members[last].tolist()) > d.n):
                raise BadQuerySet(f"each W_i must be strictly increasing, in 1..{d.n}")
            if np.count_nonzero(members == x):
                raise SetsNotDisjoint("a union needs x outside its set")
            touched = not strict or x in self.returned_points or np.logical_or.reduceat(
                self._touched(members), starts).all()
            # Member t of W_i lands at union place t + i, one further on past x.
            k = np.arange(sizes.size)
            union = np.full(members.size + sizes.size, x)
            union[np.arange(members.size) + np.repeat(k, sizes) + (members > x)] = members
            mass, sub_mass = d.set_masses(union, starts + k), d.set_masses(members, starts)
        if not touched:
            raise DisciplineViolation(_UNTOUCHED)
        check_draws(m)
        live = mass > 0.0
        every = live.all()
        p = np.minimum(sub_mass / mass if every else sub_mass[live] / mass[live], 1.0)
        hits = self.rng.binomial(int(m), p)
        if not every:
            hits, drawn = np.full(live.size, -1, dtype=np.int64), hits
            hits[live] = drawn
        if reached is not None:
            k = reached(hits)
            hits, live = hits[:k], live[:k]
        if n_wide:
            n_wide = int(np.count_nonzero(live & wide[:live.size]))
            self._count(EXPLICIT, int(m) * n_wide)
        self._count(PAIR if shape == EXPLICIT else shape,
                    int(m) * (int(np.count_nonzero(live)) - n_wide))
        return hits

    def burn(self, s: QuerySet, m: int):
        """Issue m conditional draws and discard the results.

        Used by testers that keep an oblivious, input-independent query
        schedule: the queries are counted but nothing about the
        responses is observed.
        """
        self._check(s, m)
        self._count(s.shape, m)

    # Bookkeeping ---------------------------------------------------

    def snapshot_ledger(self) -> QueryLedger:
        return self.ledger.copy()

    def __repr__(self):
        return (
            f"OracleHandle(model={self.model}, n={self.dist.n}, "
            f"seed={self.seed}, queries={self.ledger.total})"
        )
