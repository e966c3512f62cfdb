"""Testing equality to a fully specified target distribution.

Two testers share the KnownTarget wrapper: a pair-query tester built
on bucket screening plus cross-sample ratio checks, and a general
conditional-query tester that splits into a Heavy branch (a few points
carry almost everything above the split) and a Main branch built on
comparable-witness intervals.

The general tester keeps an oblivious query schedule in the Main
branch: every drawn point costs the same number of queries whether or
not it lands above the split, so the ledger total is a deterministic
function of epsilon for targets without point weights above eps/10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .distcore import EXPLICIT, Distribution, QuerySet, bucketize
from .errors import NotInNoGapRegime, check_eps, check_same_domain
from .oracles import OracleHandle
from .profiles import DESK
from .subroutines import classify, compare_budget, compare_points
from .uniformity import ACCEPT, REJECT


@dataclass(frozen=True)
class SplitPoint:
    i_star: int   # first position (ascending-weight order) with prefix > 2 eps1
    k_star: int   # i_star - 1 (meaningful in the no-gap regime)
    heavy: bool   # True when the prefix below i_star weighs at most eps1


class KnownTarget:
    """A target distribution reordered by ascending weight.

    Positions 1..N refer to the ascending-weight order; sorted_order
    maps position -> original label and prefix_sums[k] is the target
    mass of positions 1..k.

    The tables (the sort, the witness-chain tables and the bucket
    decompositions) are kept on the target Distribution itself, in its
    target_tables slot, and hold no reference back to it. So every
    KnownTarget of one Distribution instance shares them: the sort is
    paid once per distribution, a chain table once per distinct target
    weight below eps1 and a decomposition once per distinct eta, and
    all of it dies with the distribution. Each of the two caches keeps
    at most MAX_CHAINS entries and evicts its oldest first; a split
    point is one search of the prefix sums, computed on each call.
    Building a chain table costs O(N log N) in numpy, and its unit_run
    array, one int32 per node, lets resolve read a pick inside a run of
    one-point witnesses in O(1) and climb O(log N) levels only past it;
    prefix_labels is a view on the sorted order while that order is
    still increasing, one O(N) vector pass past it, and never a sort.
    """

    MAX_CHAINS = 8

    def __init__(self, dstar: Distribution):
        self.dstar = dstar
        self.n = dstar.n
        if dstar.target_tables is None:
            dstar.target_tables = _target_tables(dstar.weights)
        vars(self).update(dstar.target_tables)

    def weight_at(self, pos):
        """Target weight of the point at ascending position pos."""
        return float(self.sorted_weights[pos - 1])

    def prefix_mass(self, k):
        """Target mass of positions 1..k."""
        return float(self.prefix_sums[k])

    def prefix_labels(self, k):
        """Original labels of positions 1..k, sorted ascending."""
        if k <= self._rising:
            return self.sorted_order[:k]
        return np.flatnonzero(self.position_of <= k) + 1

    def interval_labels(self, lo, hi):
        """Original labels of positions lo..hi, sorted ascending. For
        arrays lo and hi, the labels of each interval lo[i]..hi[i],
        each run sorted, back to back."""
        lo, hi = np.atleast_1d(lo, hi)
        if (lo == hi).all():
            return self.sorted_order[lo - 1]
        if lo.size == 1:
            return np.sort(self.sorted_order[lo.item() - 1:hi.item()])
        sizes = hi - lo + 1
        seg = np.repeat(np.arange(lo.size), sizes)
        pos = np.arange(seg.size) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
        labels = self.sorted_order[pos - 1]
        return labels[np.lexsort((labels, seg))]

    def split(self, eps1: float) -> SplitPoint:
        # Tiny slack so accumulated float error in the prefix sums
        # cannot flip a prefix that equals 2 eps1 exactly.
        thr = 2.0 * eps1 * (1.0 + 1e-12) + 1e-15
        i_star = int(np.searchsorted(self.prefix_sums, thr, side="right"))
        heavy = self.prefix_mass(i_star - 1) <= eps1
        return SplitPoint(i_star, i_star - 1, heavy)

    def witness_chain(self, wj: float) -> WitnessChain:
        """The greedy witness chains for target weight wj, cached."""
        return self._cached(self._chains, wj, self._build_chain, wj)

    def _build_chain(self, wj):
        last = int(np.searchsorted(self.sorted_weights, wj, side="right"))
        return WitnessChain.build(self.prefix_sums, wj, last)

    def buckets(self, eta):
        """bucketize(dstar, eta), built on the first call for eta."""
        return self._cached(self._buckets, eta, bucketize, self.dstar, eta)

    def _cached(self, cache, key, build, *args):
        """cache[key], from build(*args) on a miss."""
        table = cache.get(key)
        if table is None:
            if len(cache) >= self.MAX_CHAINS:
                del cache[next(iter(cache))]
            table = cache[key] = build(*args)
        return table

    def sample(self, rng, size):
        """size iid original labels drawn from the target itself."""
        return self.dstar.points_at(rng.random(size), 1, self.n, 1.0)


def _target_tables(weights):
    """KnownTarget's tables for the weights: arrays and empty caches,
    by attribute name."""
    n = weights.size
    sorted_order = np.argsort(weights, kind="stable") + 1
    sorted_order.setflags(write=False)
    sorted_weights = weights[sorted_order - 1]
    position_of = np.empty(n, dtype=np.int64)
    position_of[sorted_order - 1] = np.arange(1, n + 1)
    # Positions 1.._rising hold increasing labels, so their labels in
    # ascending order are a slice of sorted_order.
    rising = sorted_order[1:] > sorted_order[:-1]
    return {
        "sorted_order": sorted_order,
        "sorted_weights": sorted_weights,
        "prefix_sums": np.concatenate(([0.0], np.cumsum(sorted_weights))),
        "position_of": position_of,
        "_rising": n if rising.all() else int(np.argmin(rising)) + 1,
        "_chains": {},
        "_buckets": {},
    }


@dataclass(frozen=True)
class WitnessChain:
    """Every greedy witness chain for one target weight wj, as a forest.

    The greedy cut below a right end cur, and whether the prefix left
    below it is light, depend on wj but not on the position j being
    tested; so all positions of weight wj walk the same forest over
    nodes 1..last-1 (last: the highest position of weight wj). Node cur
    stands for the interval (lo[cur], cur); its parent is the right end
    of the next interval down the chain, 0 past the end. The partition
    for position j is the chain from node j-1, depth[j-1] intervals
    long, rightmost first. up[k] is the 2^k-th ancestor, so the a-th
    interval of a chain is reached in O(log N) lookups. unit_run[cur]
    counts the one-point intervals (lo[cur] == cur, parent cur - 1)
    that follow each other down from cur: the a-th interval for
    a <= unit_run[cur] is node cur - a, with no lookup at all. Every
    stretch of equal target weight cuts one-point witnesses, so on a
    uniform target, and on each piece of a piecewise-constant one,
    every pick lands inside the run.
    """

    lo: np.ndarray        # int32, lo[cur]
    depth: np.ndarray     # int32, intervals in the chain from cur; depth[0] = 0
    up: tuple             # int32 arrays, up[k][cur] = 2^k-th ancestor of cur
    unit_run: np.ndarray  # int32, one-point steps down from cur before another shape

    @classmethod
    def build(cls, prefix, wj, last):
        cur = np.arange(1, last)
        cut = np.minimum(np.searchsorted(prefix, prefix[1:last] - wj, side="left"),
                         cur - 1)
        end = (cut <= 0) | (prefix[cut] <= wj)
        parent = np.zeros(last, dtype=np.int32)
        parent[1:] = np.where(end, 0, cut)
        lo = np.ones(last, dtype=np.int32)
        lo[1:] = np.where(end, 1, cut + 1)
        # Pointer jumping: after round k, depth counts the first 2^k
        # intervals of each chain and p is the 2^k-th ancestor.
        depth = (np.arange(last) > 0).astype(np.int32)
        up = []
        p = parent
        while p.any():
            up.append(p)
            depth += depth[p]
            p = p[p]
        # A run breaks at each node whose parent is not the node below
        # it; unit_run is the distance down to the nearest break.
        node = np.arange(last, dtype=np.int32)
        breaks = np.where(parent == node - 1, 0, node)
        unit_run = node - np.maximum.accumulate(breaks)
        return cls(lo, depth, tuple(up), unit_run)

    def resolve(self, j, picks):
        """(lo, hi) arrays of the picks-th intervals of j's chain;
        every pick must lie in [0, depth[j-1]). A pick a within node
        j-1's run of one-point intervals is node j-1-a, a vector op for
        all of them; a pick past the run climbs from the run's end one
        up[k] step per set bit k of what is left, in O(log N) scalar
        lookups."""
        top = j - 1
        flat = self.unit_run.item(top)
        node = (top - np.minimum(picks, flat)).astype(np.int32)
        for i in np.flatnonzero(picks > flat).tolist():
            a = picks.item(i) - flat
            cur = top - flat
            for up in self.up:
                if not a:
                    break
                if a & 1:
                    cur = up.item(cur)
                a >>= 1
            node[i] = cur
        return self.lo[node], node


@dataclass
class WitnessPartition:
    intervals: list  # (lo, hi) position intervals, rightmost first
    target_point: int  # position j
    heavy: bool  # single wide witness because the point itself is heavy


def build_witnesses(target: KnownTarget, j: int, eps1: float) -> WitnessPartition:
    """Partition positions 1..j-1 into comparable-witness intervals.

    When the target weight of j is at least eps1 the whole prefix is a
    single witness. Otherwise a right-to-left greedy scan cuts maximal
    intervals of mass at most w(j); each has mass at least w(j)/2, and
    a light leftover prefix is merged into the last interval (mass at
    most 2 w(j)).

    Cost: the intervals are read off the target's cached chain table
    for w(j) (O(N log N) once per distinct weight) by resolve, a vector
    op for the run of one-point witnesses and O(log N) scalar lookups
    for each of the d intervals past it.
    """
    sp = target.split(eps1)
    if sp.heavy:
        raise NotInNoGapRegime("target splits into the heavy regime")
    if j <= sp.k_star:
        raise NotInNoGapRegime(f"position {j} not above the split {sp.k_star}")
    lo, hi, wide = _witnesses(target, j, eps1, np.arange)
    return WitnessPartition(list(zip(lo.tolist(), hi.tolist())), j, wide)


def _witnesses(target, j, eps1, pick):
    """(lo, hi, wide): j's witness intervals, as position arrays. A
    point of target weight at least eps1 has one, the wide (1, j-1);
    any other has those picked by pick(d) from the d of its chain."""
    wj = target.weight_at(j)
    if wj >= eps1:
        return np.array([1]), np.array([j - 1]), True
    chain = target.witness_chain(wj)
    lo, hi = chain.resolve(j, pick(int(chain.depth[j - 1])))
    return lo, hi, False


# Pair-query tester -------------------------------------------------


class PcondSchedule(NamedTuple):
    """pcond_test_known's numbers."""
    eta: float         # bucket scale eps/6
    b: int             # buckets
    m: int             # phase one's draws, held to eta/b per bucket
    s: int             # phase two's points from each side
    compare_m: int     # draws per comparable pair
    ratio_floor: float  # least ratio estimate, over the target ratio


def pcond_schedule(n, eps, profile=DESK) -> PcondSchedule:
    check_eps(eps)
    eta = eps / 6.0
    b = math.ceil(math.log2(n / eta) + 1) + 1  # bucketize's count on n points
    m = math.ceil(profile["known_m_c"] * b * b * math.log2(2.0 * b) / eta**2)
    s = math.ceil(profile["known_s_c"] * b / eps)
    compare_m = compare_budget(eta / (4.0 * b), 2.0, 1.0 / (10.0 * s * s), profile)
    return PcondSchedule(eta, b, m, s, compare_m, 1.0 - eta / (2.0 * b))


def pcond_test_known(h: OracleHandle, target: KnownTarget, eps: float,
                     profile=DESK) -> str:
    check_same_domain(h.dist.n, target.n)
    dstar = target.dstar
    eta, b, m, s, compare_m, ratio_floor = pcond_schedule(target.n, eps, profile)
    buckets = target.buckets(eta)
    # Phase one: bucket weight screening from plain samples.
    idx, counts = h.draw_counts(QuerySet.full(), m)
    est = np.zeros(b)
    np.add.at(est, buckets.bucket_index_of[idx - 1], counts)
    est /= m
    if (np.abs(buckets.masses - est) > eta / b).any():
        return REJECT
    # Phase two: cross-sample ratio checks on comparable pairs.
    xs = target.sample(h.rng, s)
    ys = h.draw_many(QuerySet.full(), s)
    for x in xs.tolist():
        wx = dstar.weight(x)
        for y in ys.tolist():
            wy = dstar.weight(y)
            if wy <= 0 or not (0.5 <= wx / wy <= 2.0):
                continue
            if x == y:
                continue  # exact ratio 1 passes the one-sided check
            # y was drawn from D, so the pair has mass. rho estimates
            # D(y)/D(x); a High answer's NaN passes the one-sided check.
            low, _, rho = compare_points(h, x, y, compare_m, 2.0)
            if low or rho < ratio_floor * wy / wx:
                return REJECT
    return ACCEPT


# General conditional-query tester ----------------------------------


class CondSchedule(NamedTuple):
    """cond_test_known's numbers, from eps1..eps4 = eps/10, eps/2,
    eps/48, eps/6; each window is (lo, hi) factors on a target value."""
    eps1: float        # the split; the gate holds m_gate draws to [eps1/2, 2.5 eps1]
    heavy_m: int       # the Heavy branch's draws
    m_gate: int
    ell: int           # points drawn in the Main branch
    h_count: int       # witnesses per point
    m_recheck: int     # draws per prefix re-check
    witness_m: int     # draws per witness comparison
    wide_m: int        # draws per wide-witness comparison
    recheck: tuple     # 1 -+ eps3
    wide: tuple        # 1 -+ eps2/8
    witness: tuple     # 1 -+ eps4/4


def cond_schedule(n, eps, profile=DESK) -> CondSchedule:
    """The same numbers for every n."""
    check_eps(eps)
    eps1, eps2, eps3, eps4 = eps / 10.0, eps / 2.0, eps / 48.0, eps / 6.0
    ell = math.ceil(profile["main_l_c"] / eps)
    h_count = math.ceil(profile["main_h_c"] / eps)
    return CondSchedule(
        eps1=eps1,
        heavy_m=math.ceil(profile["heavy_m_c"] * math.log2(4.0 / eps) / eps**4),
        m_gate=math.ceil(profile["main_gate_c"] / eps**2),
        ell=ell,
        h_count=h_count,
        m_recheck=math.ceil(profile["main_recheck_c"] * math.log2(4.0 / eps) / eps),
        witness_m=compare_budget(eps4 / 8.0, 4.0, 1.0 / (10.0 * ell * h_count), profile),
        wide_m=compare_budget(eps2 / 16.0, 2.0 / eps1, 1.0 / (10.0 * ell), profile),
        recheck=(1.0 - eps3, 1.0 + eps3),
        wide=(1.0 - eps2 / 8.0, 1.0 + eps2 / 8.0),
        witness=(1.0 - eps4 / 4.0, 1.0 + eps4 / 4.0),
    )


def cond_test_known(h: OracleHandle, target: KnownTarget, eps: float,
                    profile=DESK) -> str:
    """General conditional-query identity test against a known target.

    The Main branch compares each drawn point above the split with its
    witnesses (_witnesses) in one draw_union_counts call. Ledger columns
    follow the shape of each union, not the COND model: a point with a
    one-point witness is a pair and is charged to pcond, a wider union
    to cond; full-domain draws go to samp.
    """
    check_same_domain(h.dist.n, target.n)
    sched = cond_schedule(target.n, eps, profile)
    sp = target.split(sched.eps1)
    if sp.heavy:
        return _test_known_heavy(h, target, sp, sched)
    return _test_known_main(h, target, sp, sched)


def _test_known_heavy(h, target, sp, sched):
    """Every position at or above the split is individually heavy;
    check their frequencies point by point."""
    eps1, m = sched.eps1, sched.heavy_m
    idx, counts = h.draw_counts(QuerySet.full(), m)
    freq = np.zeros(target.n + 1)
    freq[idx] = counts / m
    est = freq[target.sorted_order[sp.i_star - 1:]]
    # Summed in position order, one term at a time, as a loop adds.
    upper_mass = np.cumsum(est)[-1]
    leftover = 1.0 - upper_mass
    if ((np.abs(est - target.sorted_weights[sp.i_star - 1:]) > eps1**2).any()
            or leftover - target.prefix_mass(sp.i_star - 1) > eps1):
        return REJECT
    return ACCEPT


def _test_known_main(h, target, sp, sched):
    (eps1, _, m_gate, ell, h_count, m_recheck, witness_m, wide_m,
     (recheck_lo, recheck_hi), wide, witness) = sched
    k = sp.k_star
    full = QuerySet.full()
    low_prefix = QuerySet.explicit(target.prefix_labels(k))
    reject = False
    # Gate: the mass below the split must look right.
    gate = h.draw_subset_count(full, low_prefix, m_gate) / m_gate
    if not (eps1 / 2.0 <= gate <= 2.5 * eps1):
        reject = True
    drawn = h.draw_many(full, ell)
    js = target.position_of[drawn - 1]
    above = js > k
    n_below = ell - int(np.count_nonzero(above))
    if n_below:
        # Oblivious padding: each below-split point burns the budget
        # the above-split checks would have used. A burn draws nothing,
        # so one call charges them all.
        h.burn(full, n_below * (m_recheck + h_count * witness_m))
    pick = partial(h.rng.integers, 0, size=h_count)  # pick(d): h_count picks in [0, d)
    # Once reject is set the outcome is fixed, but every oracle call is
    # still made, so the ledger and the generator end as they would.
    for label, j in zip(drawn[above].tolist(), js[above].tolist()):
        # Re-check the target prefix mass up to this point. The labels
        # come sorted and inside the domain, so the set skips explicit's
        # O(j) order check.
        up_to_j = QuerySet(EXPLICIT, indices=target.prefix_labels(j))
        est = h.draw_subset_count(full, up_to_j, m_recheck) / m_recheck
        star = target.prefix_mass(j)
        if not (recheck_lo * star <= est <= recheck_hi * star):
            reject = True
        los, his, heavy = _witnesses(target, j, eps1, pick)
        m, K, (lo, hi) = (wide_m, 2.0 / eps1, wide) if heavy else (witness_m, 4.0, witness)
        # All the comparisons of {label} against its witnesses, in one
        # oracle call; a zero-mass union reads -1, which classify calls Low.
        hits = h.draw_union_counts(label, target.interval_labels(los, his),
                                   his - los + 1, m)
        if reject:
            continue
        rho = classify(hits, m, K)[2]
        wj = target.weight_at(j)
        ratio_star = (target.prefix_sums[his] - target.prefix_sums[los - 1]) / wj
        if not ((lo * ratio_star <= rho) & (rho <= hi * ratio_star)).all():
            reject = True
    return REJECT if reject else ACCEPT
