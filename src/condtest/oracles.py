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
the full theoretical query budgets. Three kernels make k
draw_subset_count observations in one call, with the checks, ledger
charges and random numbers of k scalar calls in order, from one
binomial call: draw_pair_counts on the pairs {x, y_i}
(pcond_test_uniform, pcond_test_equality, compare_to_point),
draw_interval_counts on intervals (binary_descent, twice per
icond_test_uniform run) and draw_union_counts on the unions
{x} ∪ W_i (cond_test_known). draw_counts(rows=k) draws k histograms
on one set from one multinomial call, with the numbers, generator
state, charges and returned points of k calls in order; eval_test_equality
draws the first round of approx_eval at many points this way. A call
costs some tens of microseconds before its first element, so the
testers make few, large calls. Every mass and inverse-CDF draw, scalar
or batched, is a Distribution method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distcore import (EXPLICIT, FULL, INTERVAL, PAIR, Distribution, QuerySet,
                       _check_domain)
from .errors import (
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
    elif sub.shape == EXPLICIT:
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

    def draw_counts(self, s: QuerySet, m: int, rows=None, reached=None):
        """Histogram of m iid conditional draws.

        Returns (indices, counts) where indices are the members of S
        with positive conditional probability. Equivalent in
        distribution to draw_many followed by counting, but one
        multinomial regardless of m.

        With rows=k, counts holds k histograms, one a row, from one
        multinomial call, which gives the numbers and generator state of
        k calls in order; the checks, charges and returned points are
        those of the k calls. reached, if given, maps (indices, counts)
        to the number of leading calls a caller going one at a time
        would make before it stops. The generator is then rewound and
        replays only their draws, and only their rows are returned.
        """
        mass = self._check(s, m)
        if rows is not None:
            check_draws(rows)
        d = self.dist
        idx = s.members(d.n)
        w = d.weights[idx - 1]
        support = w > 0
        idx = idx[support]
        p = w[support] / mass
        p = p / p.sum()
        if reached is not None:
            state = self.rng.bit_generator.state
        counts = self.rng.multinomial(int(m), p, size=rows)
        calls = 1 if rows is None else rows
        if reached is not None:
            calls = reached(idx, counts)
            if calls < rows:
                counts = counts[:calls]
                self.rng.bit_generator.state = state
                self.rng.multinomial(int(m), p, size=calls)
        self._count(s.shape, m * calls)
        hit = counts > 0 if rows is None else (counts > 0).any(axis=0)
        self.returned_points.update(idx[hit].tolist())
        return idx, counts

    def draw_subset_count(self, s: QuerySet, subset: QuerySet, m: int) -> int:
        """Number of hits in `subset` among m iid conditional draws on S.

        A coarsened observation: only the hit count is revealed, so no
        returned points are recorded. One binomial regardless of m.
        """
        mass = self._check(s, m)
        if not _inside(subset, s, self.dist.n):
            raise BadQuerySet(f"the subset must lie inside S, in 1..{self.dist.n}")
        sub_mass = self.dist.mass(subset)
        p = min(sub_mass / mass, 1.0)
        self._count(s.shape, m)
        return int(self.rng.binomial(int(m), p))

    def _binomial_counts(self, mass, sub_mass, m, reached):
        """(hits, drawn): the hits in subsets of masses sub_mass among m
        draws on each union of masses mass, from one binomial call, which
        with PCG64 gives the numbers and generator state of the scalar
        calls in order, and the mask of the unions drawn, which the
        caller charges. A zero-mass union, where the scalar call raises
        ZeroMassSet, is not drawn and reads -1.

        reached, if given, maps the k counts to the number of leading
        unions a caller going one at a time would query before it stops.
        The generator is then rewound and replays only their draws, and
        only their counts are returned.
        """
        check_draws(m)
        live = mass > 0.0
        every = live.all()
        p = np.minimum(sub_mass / mass if every else sub_mass[live] / mass[live], 1.0)
        if reached is not None:
            state = self.rng.bit_generator.state
        hits = self.rng.binomial(int(m), p)
        if not every:
            hits, drawn = np.full(live.size, -1, dtype=np.int64), hits
            hits[live] = drawn
        if reached is not None:
            k = reached(hits)
            if k < hits.size:
                hits, live = hits[:k], live[:k]
                self.rng.bit_generator.state = state
                self.rng.binomial(int(m), p[:np.count_nonzero(live)])
        return hits, live

    def draw_pair_counts(self, x, ys, m, reached=None):
        """draw_subset_count on the k pairs {x, ys[i]} against ys[i], in
        one call; x is an int or a numpy array of k points.

        Refusals, before anything is drawn or charged, in this order:
        IllegalShapeForModel, BadQuerySet for a point outside 1..N or an
        x array not as long as ys, SetsNotDisjoint for x == y and, under
        STRICT, DisciplineViolation when neither point was returned. Drawn
        pairs are charged to pcond; a zero-mass pair is not and reads -1.
        reached is as in _binomial_counts.
        """
        self._allow(PAIR)
        d = self.dist
        ys = np.asarray(ys, dtype=np.int64)
        one = not isinstance(x, np.ndarray)
        if one:
            x = int(x)
            x_bad = not 1 <= x <= d.n
        else:
            x = x.astype(np.int64, copy=False)
            x_bad = x.shape != ys.shape or x.size and (x.min() < 1 or x.max() > d.n)
        if x_bad or (ys.size and (ys.min() < 1 or ys.max() > d.n)):
            raise BadQuerySet(f"pairs need two points in 1..{d.n}")
        if (ys == x).any():
            raise SetsNotDisjoint("a pair needs two distinct points")
        if self.discipline == STRICT:
            if one:
                touched = x in self.returned_points or self._touched(ys).all()
            else:
                touched = (self._touched(x) | self._touched(ys)).all()
            if not touched:
                raise DisciplineViolation(_UNTOUCHED)
        hits, drawn = self._binomial_counts(d.pair_masses(x, ys), d.weights[ys - 1],
                                            m, reached)
        self._count(PAIR, int(m) * int(np.count_nonzero(drawn)))
        return hits

    def draw_interval_counts(self, lo, hi, sub_lo, sub_hi, m, reached=None):
        """draw_subset_count on the k intervals [lo[i], hi[i]] against
        [sub_lo[i], sub_hi[i]], an interval inside each, in one call.

        Every interval passes draw_subset_count's checks, refused ones
        raising before anything is drawn or charged. Drawn intervals are
        charged to icond; a zero-mass one is not and reads -1. reached
        is as in _binomial_counts.
        """
        self._allow(INTERVAL)
        lo, hi, sub_lo, sub_hi = (np.asarray(v, dtype=np.int64)
                                  for v in (lo, hi, sub_lo, sub_hi))
        d = self.dist
        if lo.size and not (lo.min() >= 1 and hi.max() <= d.n and (
                (lo <= sub_lo) & (sub_lo <= sub_hi) & (sub_hi <= hi)).all()):
            raise BadQuerySet(f"intervals and their subsets must lie in 1..{d.n}")
        if (self.discipline == STRICT
                and not _meets(self._sorted_returned(), lo, hi).all()):
            raise DisciplineViolation(_UNTOUCHED)
        hits, drawn = self._binomial_counts(d.interval_masses(lo, hi),
                                            d.interval_masses(sub_lo, sub_hi), m, reached)
        self._count(INTERVAL, int(m) * int(np.count_nonzero(drawn)))
        return hits

    def draw_union_counts(self, x, members, sizes, m):
        """draw_subset_count on the k unions {x} ∪ W_i against W_i, in
        one call.

        members holds W_1..W_k back to back, each strictly increasing,
        and sizes their lengths. The union with a one-point W_i is a
        pair, charged to pcond, and any wider union an explicit set,
        charged to cond. Every element passes the checks
        draw_subset_count makes on its union (the shape allowed for the
        model, W_i inside the domain and, under STRICT, touching a
        returned point), and W_i must not hold x (SetsNotDisjoint). A
        refused element raises before anything is drawn or charged. One
        binomial call draws all k counts, with the numbers and generator
        state of k scalar calls in order. A union of zero mass is neither
        drawn nor charged and reads -1. A call whose W_i are all one
        point is draw_pair_counts(x, members, m).
        """
        x = int(x)
        members = np.asarray(members, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if 0 < members.size == sizes.size and (sizes == 1).all():
            return self.draw_pair_counts(x, members, m)
        d = self.dist
        wide = sizes > 1
        n_wide = int(np.count_nonzero(wide))
        for shape, used in ((PAIR, n_wide < sizes.size), (EXPLICIT, n_wide > 0)):
            if used:
                self._allow(shape)
        if (sizes.size == 0 or sizes.min() < 1 or members.size != sizes.sum()
                or not 1 <= x <= d.n or members.min() < 1 or members.max() > d.n):
            raise BadQuerySet(f"unions need a point and non-empty sets in 1..{d.n}")
        ends = np.cumsum(sizes)
        starts = ends - sizes
        rising = members[1:] > members[:-1]
        rising[starts[1:] - 1] = True
        if not rising.all():
            raise BadQuerySet("explicit indices must be strictly increasing")
        below = np.add.reduceat(members < x, starts)
        if (members[np.minimum(starts + below, ends - 1)] == x).any():
            raise SetsNotDisjoint("a union needs x outside its set")
        if self.discipline == STRICT and x not in self.returned_points:
            touched = np.logical_or.reduceat(self._touched(members), starts)
            if not touched.all():
                raise DisciplineViolation(_UNTOUCHED)
        # Each union is x inserted into its W_i.
        union = np.insert(members, starts + below, x)
        hits, drawn = self._binomial_counts(
            d.set_masses(union, starts + np.arange(sizes.size)),
            d.set_masses(members, starts), m, None)
        n_drawn_wide = int(np.count_nonzero(drawn & wide))
        self._count(PAIR, int(m) * (int(np.count_nonzero(drawn)) - n_drawn_wide))
        self._count(EXPLICIT, int(m) * n_drawn_wide)
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
