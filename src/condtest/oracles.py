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
the full theoretical query budgets. draw_subset_counts makes k
draw_subset_count observations on k pairs or k intervals in one call,
with the same checks, ledger charges and random numbers as k scalar
calls in order (callers: pcond_test_uniform, binary_descent,
pcond_test_equality and, through compare_to_point, the neighborhood
and distance estimators). draw_union_counts does the same for k
comparisons of one point x against sets W_1..W_k, each drawn on the
union {x} ∪ W_i: one-point sets make pairs, wider ones explicit
sets. Its checks and draw cost O(total size of the W_i) in numpy plus
one binomial call; the two masses of each explicit union are summed
one union at a time, so each keeps Distribution.mass's summation
order. A call whose W_i are all one point, as every call on a uniform
target is, skips the per-set bookkeeping and costs a fixed number of
numpy operations on k-element arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distcore import (EXPLICIT, FULL, INTERVAL, PAIR, Distribution, QuerySet,
                       _check_domain)
from .errors import (
    BadQuerySet,
    DisciplineViolation,
    IllegalShapeForModel,
    IncompatibleOracleModel,
    SetsNotDisjoint,
    ZeroMassSet,
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

# Ledger column per query shape, regardless of the handle's model.
_SHAPE_COLUMN = {FULL: "samp", PAIR: "pcond", INTERVAL: "icond", EXPLICIT: "cond"}


def _fix_zero_hits(out, d, lo, hi):
    """Repair float-edge landings from inverse-CDF search.

    Exact arithmetic never selects a zero-weight point, but a uniform
    variate can tie or slightly overshoot a prefix value. Clamp into
    range and step down to the nearest positive-weight point.
    """
    np.clip(out, lo, hi, out=out)
    bad = d.weights[out - 1] == 0.0
    while np.any(bad):
        out[bad] -= 1
        np.clip(out, lo, hi, out=out)
        bad = d.weights[out - 1] == 0.0
    return out


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

    @property
    def total(self):
        return self.samp_count + self.cond_count + self.pcond_count + self.icond_count

    def copy(self):
        return QueryLedger(
            self.samp_count, self.cond_count, self.pcond_count, self.icond_count
        )

    def as_dict(self):
        return {
            "samp": self.samp_count,
            "cond": self.cond_count,
            "pcond": self.pcond_count,
            "icond": self.icond_count,
            "total": self.total,
        }


class OracleHandle:
    """Sampling front-end for one Distribution under one access model."""

    def __init__(self, dist: Distribution, model=COND, seed=0, discipline=STRICT):
        if model not in _ALLOWED:
            raise IncompatibleOracleModel(f"unknown model {model!r}")
        if discipline not in (STRICT, PERMISSIVE):
            raise IncompatibleOracleModel(f"unknown discipline {discipline!r}")
        self.dist = dist
        self.model = model
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.discipline = discipline
        self.rng = np.random.Generator(np.random.PCG64(self.seed))
        self.ledger = QueryLedger()
        self.returned_points = set()
        self._seen = np.empty(0, dtype=np.int64)

    # Validation ----------------------------------------------------

    def _check(self, s: QuerySet):
        if s.shape not in _ALLOWED[self.model]:
            raise IllegalShapeForModel(
                f"{self.model} oracle cannot take a {s.shape} set"
            )
        _check_domain(self.dist, s)
        if (self.discipline == STRICT and s.shape != FULL
                and not self._touches_returned(s)):
            raise DisciplineViolation(
                "conditioning on a set with no previously returned point"
            )
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
        if seen.size == 0:
            return False
        pos = np.searchsorted(seen, s.indices)
        return bool((seen.take(pos, mode="clip") == s.indices).any())

    def _count(self, shape, m):
        col = _SHAPE_COLUMN[shape]
        setattr(self.ledger, col + "_count", getattr(self.ledger, col + "_count") + m)

    # Drawing -------------------------------------------------------

    def draw(self, s: QuerySet) -> int:
        return int(self.draw_many(s, 1)[0])

    def draw_many(self, s: QuerySet, m: int):
        """m iid conditional draws, returned as an index array."""
        mass = self._check(s)
        d = self.dist
        if s.shape == FULL:
            out = d.locate(self.rng.random(m)) + 1
            out = _fix_zero_hits(out, d, 1, d.n)
        elif s.shape == INTERVAL:
            u = d.prefix_at(s.a - 1) + self.rng.random(m) * mass
            out = d.locate(u) + 1
            out = _fix_zero_hits(out, d, s.a, s.b)
        else:
            idx = s.members(d.n)
            p = d.weights[idx - 1] / mass
            out = self.rng.choice(idx, size=m, p=p)
        self._count(s.shape, m)
        self.returned_points.update(np.unique(out).tolist())
        return out

    def draw_counts(self, s: QuerySet, m: int):
        """Histogram of m iid conditional draws.

        Returns (indices, counts) where indices are the members of S
        with positive conditional probability. Equivalent in
        distribution to draw_many followed by counting, but one
        multinomial regardless of m.
        """
        mass = self._check(s)
        d = self.dist
        idx = s.members(d.n)
        w = d.weights[idx - 1]
        support = w > 0
        idx = idx[support]
        p = w[support] / mass
        p = p / p.sum()
        counts = self.rng.multinomial(int(m), p)
        self._count(s.shape, m)
        self.returned_points.update(idx[counts > 0].tolist())
        return idx, counts

    def draw_subset_count(self, s: QuerySet, subset: QuerySet, m: int) -> int:
        """Number of hits in `subset` among m iid conditional draws on S.

        A coarsened observation: only the hit count is revealed, so no
        returned points are recorded. One binomial regardless of m.
        """
        mass = self._check(s)
        sub_mass = self.dist.mass(subset)
        p = min(sub_mass / mass, 1.0)
        self._count(s.shape, m)
        return int(self.rng.binomial(int(m), p))

    def draw_subset_counts(self, shape, lo, hi, sub_lo, sub_hi, m, reached=None):
        """draw_subset_count for k unions of one shape, in one call.

        Element i conditions m draws on the pair {lo[i], hi[i]}
        (shape PAIR, lo < hi) or the interval [lo[i], hi[i]] (shape
        INTERVAL) and counts the hits in [sub_lo[i], sub_hi[i]]: one
        point of the pair, or an interval inside the union. Every
        element passes the checks of draw_subset_count, its masses take
        the same float operations as Distribution.mass, and one
        binomial call draws all k counts, which with PCG64 gives the
        numbers and the generator state of k scalar calls in order. A
        refused element raises before anything is drawn or charged.

        A union of zero mass, where the scalar call raises ZeroMassSet,
        is neither drawn nor charged and reads -1.

        reached, if given, maps the k counts to the number of leading
        elements a caller going one element at a time would query
        before it stops. The handle then ends as if only those had
        been queried: only they are charged, the generator is rewound
        and replays only their draws, and only their counts are
        returned.
        """
        if shape not in (PAIR, INTERVAL):
            raise BadQuerySet(f"draw_subset_counts takes pairs or intervals, not {shape}")
        if shape not in _ALLOWED[self.model]:
            raise IllegalShapeForModel(
                f"{self.model} oracle cannot take a {shape} set"
            )
        lo, hi, sub_lo, sub_hi = (np.asarray(v, dtype=np.int64)
                                  for v in (lo, hi, sub_lo, sub_hi))
        d = self.dist
        if shape == PAIR:
            ok = (lo < hi) & (sub_lo == sub_hi) & ((sub_lo == lo) | (sub_lo == hi))
        else:
            ok = (lo <= sub_lo) & (sub_lo <= sub_hi) & (sub_hi <= hi)
        if not (ok & (lo >= 1) & (hi <= d.n)).all():
            raise BadQuerySet(f"{shape} unions and their subsets must lie in 1..{d.n}")
        if self.discipline == STRICT:
            seen = self._sorted_returned()
            if shape == PAIR:
                touched = _meets(seen, lo, lo) | _meets(seen, hi, hi)
            else:
                touched = _meets(seen, lo, hi)
            if not touched.all():
                raise DisciplineViolation(
                    "conditioning on a set with no previously returned point"
                )
        if shape == PAIR:
            mass = d.weights[lo - 1] + d.weights[hi - 1]
            sub_mass = d.weights[sub_lo - 1]
        else:
            mass = d.prefix_at(hi) - d.prefix_at(lo - 1)
            sub_mass = d.prefix_at(sub_hi) - d.prefix_at(sub_lo - 1)
        live = mass > 0.0
        p = np.minimum(sub_mass[live] / mass[live], 1.0)
        if reached is not None:
            state = self.rng.bit_generator.state
        hits = np.full(lo.size, -1, dtype=np.int64)
        hits[live] = self.rng.binomial(int(m), p)
        if reached is not None:
            k = reached(hits)
            if k < hits.size:
                hits, live = hits[:k], live[:k]
                self.rng.bit_generator.state = state
                self.rng.binomial(int(m), p[:np.count_nonzero(live)])
        self._count(shape, int(m) * int(np.count_nonzero(live)))
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
        refused element raises before anything is drawn or charged.
        Masses take the float operations of Distribution.mass, and one
        binomial call draws all k counts, which gives the numbers and
        the generator state of k scalar calls in order. A union of zero
        mass is neither drawn nor charged and reads -1.
        """
        x = int(x)
        members = np.asarray(members, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if 0 < members.size == sizes.size and (sizes == 1).all():
            return self._draw_point_union_counts(x, members, m)
        d = self.dist
        wide = sizes > 1
        n_wide = int(np.count_nonzero(wide))
        for shape, used in ((PAIR, n_wide < sizes.size), (EXPLICIT, n_wide > 0)):
            if used and shape not in _ALLOWED[self.model]:
                raise IllegalShapeForModel(
                    f"{self.model} oracle cannot take a {shape} set"
                )
        if (sizes.size == 0 or sizes.min() < 1 or members.size != sizes.sum()
                or not 1 <= x <= d.n or members.min() < 1 or members.max() > d.n):
            raise BadQuerySet(f"unions need a point and non-empty sets in 1..{d.n}")
        # Calls with only one-point W_i took the point path above, so
        # at least one W_i here is wide.
        w = d.weights
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
                raise DisciplineViolation(
                    "conditioning on a set with no previously returned point"
                )
        sub_mass = w[members[starts] - 1]
        mass = w[x - 1] + sub_mass
        # Each union's members in order: x inserted into its W_i.
        union = w[np.insert(members, starts + below, x) - 1]
        for i in np.flatnonzero(wide).tolist():
            sub_mass[i] = w[members[starts[i]:ends[i]] - 1].sum()
            mass[i] = union[starts[i] + i:ends[i] + i + 1].sum()
        live = mass > 0.0
        hits = np.full(sizes.size, -1, dtype=np.int64)
        hits[live] = self.rng.binomial(int(m), np.minimum(sub_mass[live] / mass[live], 1.0))
        n_live_wide = int(np.count_nonzero(live & wide))
        self._count(PAIR, int(m) * (int(np.count_nonzero(live)) - n_live_wide))
        self._count(EXPLICIT, int(m) * n_live_wide)
        return hits

    def _draw_point_union_counts(self, x, points, m):
        """draw_union_counts when every W_i is the one point points[i]:
        the same refusals in the same order, the same pair masses, one
        binomial call and the pcond charge, in a fixed number of numpy
        operations on k-element arrays."""
        d = self.dist
        if PAIR not in _ALLOWED[self.model]:
            raise IllegalShapeForModel(f"{self.model} oracle cannot take a {PAIR} set")
        if not 1 <= x <= d.n or points.min() < 1 or points.max() > d.n:
            raise BadQuerySet(f"unions need a point and non-empty sets in 1..{d.n}")
        if (points == x).any():
            raise SetsNotDisjoint("a union needs x outside its set")
        if (self.discipline == STRICT and x not in self.returned_points
                and not self._touched(points).all()):
            raise DisciplineViolation(
                "conditioning on a set with no previously returned point"
            )
        sub_mass = d.weights[points - 1]
        mass = d.weights[x - 1] + sub_mass
        live = mass > 0.0
        hits = np.full(points.size, -1, dtype=np.int64)
        hits[live] = self.rng.binomial(int(m), np.minimum(sub_mass[live] / mass[live], 1.0))
        self._count(PAIR, int(m) * int(np.count_nonzero(live)))
        return hits

    def burn(self, s: QuerySet, m: int):
        """Issue m conditional draws and discard the results.

        Used by testers that keep an oblivious, input-independent query
        schedule: the queries are counted but nothing about the
        responses is observed.
        """
        self._check(s)
        self._count(s.shape, m)

    # Bookkeeping ---------------------------------------------------

    def snapshot_ledger(self) -> QueryLedger:
        return self.ledger.copy()

    def __repr__(self):
        return (
            f"OracleHandle(model={self.model}, n={self.dist.n}, "
            f"seed={self.seed}, queries={self.ledger.total})"
        )
