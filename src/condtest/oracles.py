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
are non-empty.

Besides per-point draws the handle offers batched observations
(draw_many, draw_counts, draw_subset_count, burn). Each batch of m
draws is sampled in one shot from the exact joint distribution of m
iid conditional draws, so testers that only consume counts can afford
the full theoretical query budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distcore import (EXPLICIT, FULL, INTERVAL, PAIR, Distribution, QuerySet,
                       _check_domain)
from .errors import (
    DisciplineViolation,
    IllegalShapeForModel,
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
            raise ValueError(f"unknown model {model!r}")
        if discipline not in (STRICT, PERMISSIVE):
            raise ValueError(f"unknown discipline {discipline!r}")
        self.dist = dist
        self.model = model
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.discipline = discipline
        self.rng = np.random.Generator(np.random.PCG64(self.seed))
        self.ledger = QueryLedger()
        self.returned_points = set()

    # Validation ----------------------------------------------------

    def _check(self, s: QuerySet):
        if s.shape not in _ALLOWED[self.model]:
            raise IllegalShapeForModel(
                f"{self.model} oracle cannot take a {s.shape} set"
            )
        _check_domain(self.dist, s)
        if (
            self.discipline == STRICT
            and s.shape != FULL
            and not self._touches_returned(s)
        ):
            raise DisciplineViolation(
                "conditioning on a set with no previously returned point"
            )
        mass = self.dist.mass(s)
        if mass <= 0.0:
            raise ZeroMassSet("oracle failure: query set has zero mass")
        return mass

    def _touches_returned(self, s: QuerySet):
        if s.shape == PAIR:
            return s.a in self.returned_points or s.b in self.returned_points
        if s.shape == INTERVAL:
            return any(s.a <= p <= s.b for p in self.returned_points)
        if len(self.returned_points) <= s.indices.size:
            return any(s.contains(p, self.dist.n) for p in self.returned_points)
        return bool(np.isin(s.indices, list(self.returned_points)).any())

    def _count(self, s: QuerySet, m):
        col = _SHAPE_COLUMN[s.shape]
        setattr(self.ledger, col + "_count", getattr(self.ledger, col + "_count") + m)

    # Drawing -------------------------------------------------------

    def draw(self, s: QuerySet) -> int:
        return int(self.draw_many(s, 1)[0])

    def draw_many(self, s: QuerySet, m: int):
        """m iid conditional draws, returned as an index array."""
        mass = self._check(s)
        d = self.dist
        if s.shape == FULL:
            u = self.rng.random(m)
            out = np.searchsorted(d.prefix[1:], u, side="right") + 1
            out = _fix_zero_hits(out, d, 1, d.n)
        elif s.shape == INTERVAL:
            lo = d.prefix[s.a - 1]
            u = lo + self.rng.random(m) * mass
            out = np.searchsorted(d.prefix[1:], u, side="right") + 1
            out = _fix_zero_hits(out, d, s.a, s.b)
        else:
            idx = s.members(d.n)
            p = d.weights[idx - 1] / mass
            out = self.rng.choice(idx, size=m, p=p)
        self._count(s, m)
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
        self._count(s, m)
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
        self._count(s, m)
        return int(self.rng.binomial(int(m), p))

    def burn(self, s: QuerySet, m: int):
        """Issue m conditional draws and discard the results.

        Used by testers that keep an oblivious, input-independent query
        schedule: the queries are counted but nothing about the
        responses is observed.
        """
        self._check(s)
        self._count(s, m)

    # Bookkeeping ---------------------------------------------------

    def snapshot_ledger(self) -> QueryLedger:
        return self.ledger.copy()

    def __repr__(self):
        return (
            f"OracleHandle(model={self.model}, n={self.dist.n}, "
            f"seed={self.seed}, queries={self.ledger.total})"
        )
