import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condtest.adversarial import gen_half_split, gen_block_profile, gen_staircase
from condtest.distcore import QuerySet, bucketize, make_distribution, uniform
from condtest.errors import DomainMismatch
from condtest.identity import (
    KnownTarget,
    WitnessChain,
    _witnesses,
    cond_schedule,
    cond_test_known,
    pcond_test_known,
)
from condtest.oracles import COND, OracleHandle, PCOND, STRICT
from condtest.uniformity import ACCEPT, REJECT


def pcond_handle(d, seed=0):
    return OracleHandle(d, model=PCOND, seed=seed, discipline=STRICT)


def cond_handle(d, seed=0):
    return OracleHandle(d, model=COND, seed=seed, discipline=STRICT)


class TestEpsilonLadder:
    def test_values(self):
        # eps1..eps4 = 0.048, 0.24, 0.01, 0.08: the split and the
        # re-check, wide and witness windows.
        sched = cond_schedule(1024, 0.48)
        assert sched.eps1 == pytest.approx(0.048)
        assert sched.recheck == pytest.approx((0.99, 1.01))
        assert sched.wide == pytest.approx((1.0 - 0.24 / 8.0, 1.0 + 0.24 / 8.0))
        assert sched.witness == pytest.approx((0.98, 1.02))


class TestKnownTarget:
    def test_sorting_and_prefix(self):
        t = KnownTarget(make_distribution([4, 1, 3, 2]))
        assert t.sorted_order.tolist() == [2, 4, 3, 1]
        assert t.sorted_weights.tolist() == [0.1, 0.2, 0.3, 0.4]
        assert t.prefix_mass(2) == pytest.approx(0.3)
        assert t.weight_at(3) == pytest.approx(0.3)
        assert t.position_of.tolist() == [4, 1, 3, 2]
        assert t.prefix_labels(2).tolist() == [2, 4]
        assert t.interval_labels(2, 3).tolist() == [3, 4]

    def test_interval_labels_of_many_intervals(self):
        t = KnownTarget(make_distribution(np.random.default_rng(2).random(60)))
        lo = np.array([1, 5, 5, 60, 17, 2])
        hi = np.array([1, 9, 5, 60, 40, 59])
        want = [np.sort(t.sorted_order[a - 1:b]) for a, b in zip(lo, hi)]
        assert t.interval_labels(lo, hi).tolist() == np.concatenate(want).tolist()
        assert t.interval_labels(lo[2:4], hi[2:4]).tolist() == np.concatenate(want[2:4]).tolist()
        for a, b, one in zip(lo, hi, want):
            assert t.interval_labels(a, b).tolist() == one.tolist()
        # The one wide witness (1, j-1) of a heavy point is a prefix.
        for k in range(1, 61):
            assert t.interval_labels(1, k).tolist() == t.prefix_labels(k).tolist()

    def test_stable_tie_break(self):
        t = KnownTarget(uniform(4))
        assert t.sorted_order.tolist() == [1, 2, 3, 4]

    def test_split_uniform(self):
        # eps1 = 0.05 at eps = 0.5; uniform 100: prefix > 0.1 first at
        # position 11; prefix below is 0.10 > eps1, so not heavy.
        t = KnownTarget(uniform(100))
        sp = t.split(0.05)
        assert (sp.i_star, sp.heavy) == (11, False)

    def test_split_point_mass_is_heavy(self):
        w = np.full(50, 0.001)
        w[0] = 1.0
        t = KnownTarget(make_distribution(w))
        assert t.split(0.05).heavy

    @pytest.mark.parametrize("make", [
        lambda: uniform(300),
        lambda: gen_half_split(300, 0.4),
        lambda: make_distribution(np.random.default_rng(5).random(300)),
    ])
    def test_prefix_labels_sorted_without_sort(self, make):
        t = KnownTarget(make())
        for k in (0, 1, 2, 57, 150, 299, 300):
            got = t.prefix_labels(k)
            want = np.sort(t.sorted_order[:k])
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), k

    def test_split_and_chain_cached(self):
        t = KnownTarget(uniform(100))
        assert t.split(0.05) == t.split(0.05)
        assert t.witness_chain(0.01) is t.witness_chain(0.01)

    def test_tables_shared_by_targets_of_one_distribution(self):
        d = gen_staircase(2, 3)
        t1, t2 = KnownTarget(d), KnownTarget(d)
        assert t1.sorted_order is t2.sorted_order
        assert t1.split(0.05) == t2.split(0.05)
        assert t1.witness_chain(0.01) is t2.witness_chain(0.01)
        assert t1.buckets(0.1) is t2.buckets(0.1)
        assert t1.buckets(0.1).bucket_index_of.tolist() == (
            bucketize(d, 0.1).bucket_index_of.tolist())
        # An equal distribution is another instance, with its own tables.
        assert KnownTarget(gen_staircase(2, 3)).sorted_order is not t1.sorted_order
        assert not t1.sorted_order.flags.writeable
        # Like the chain tables, at most MAX_CHAINS decompositions stay.
        for eta in np.linspace(0.01, 0.2, 12):
            t1.buckets(float(eta))
        assert len(t2._buckets) == KnownTarget.MAX_CHAINS

    def test_internal_sampler_matches_target(self):
        d = make_distribution([1, 2, 3, 4])
        t = KnownTarget(d)
        rng = np.random.default_rng(0)
        draws = t.sample(rng, 100000)
        freq = np.bincount(draws, minlength=5)[1:] / 100000
        assert freq == pytest.approx(d.weights, abs=0.01)

    def test_sample_at_the_top_variate_returns_positive_weight(self):
        # Ten weights 0.1 sum to 0.9999999999999999 in the prefix masses,
        # so the variate just below 1 overshoots them. The target's own
        # draw and the oracle's put it on label 10, not on the zero-weight
        # label 11.
        class TopVariate:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        d = make_distribution([0.1] * 10 + [0.0])
        labels = KnownTarget(d).sample(TopVariate(), 4)
        assert labels.tolist() == [10] * 4
        assert (d.weights[labels - 1] > 0.0).all()
        h = cond_handle(d)
        h.rng = TopVariate()
        assert h.draw_many(QuerySet.full(), 4).tolist() == [10] * 4


def partition(t, j, eps1=0.05):
    """(intervals, wide): j's whole witness partition as (lo, hi)
    position pairs, rightmost first, read as cond_test_known reads it."""
    lo, hi, wide = _witnesses(t, j, eps1, np.arange)
    return list(zip(lo.tolist(), hi.tolist())), wide


class TestWitnessIntervals:
    def _brute_valid(self, t, intervals, j):
        wj = t.weight_at(j)
        covered = []
        for lo, hi in intervals:
            assert 1 <= lo <= hi <= j - 1
            covered.extend(range(lo, hi + 1))
            mass = t.prefix_mass(hi) - t.prefix_mass(lo - 1)
            cap = 2.0 * wj if lo == 1 else wj
            assert mass <= cap + 1e-12
            if lo != 1:
                assert mass >= wj / 2.0 - 1e-12
        assert sorted(covered) == list(range(1, j))

    def test_valid_on_random_targets(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(50):
            n = int(rng.integers(16, 513))
            d = make_distribution(rng.random(n) ** 2 + 1e-6)
            t = KnownTarget(d)
            sp = t.split(0.05)
            if sp.heavy:
                continue
            for j in range(sp.i_star, n + 1, max(1, (n - sp.i_star) // 5)):
                intervals, wide = partition(t, j)
                if wide:
                    assert intervals == [(1, j - 1)]
                else:
                    self._brute_valid(t, intervals, j)
                checked += 1
        assert checked > 50

    def test_wide_point_single_witness(self):
        w = np.full(40, 0.5 / 39)
        w[39] = 0.5
        t = KnownTarget(make_distribution(w))
        assert partition(t, 40) == ([(1, 39)], True)


def reference_witnesses(target, j, eps1):
    """The scalar greedy scan the chain table replaced, kept verbatim as
    the reference: one searchsorted call per interval."""
    wj = target.weight_at(j)
    prefix = target.prefix_sums
    intervals = []
    cur = j - 1
    while cur >= 1:
        m = int(np.searchsorted(prefix, prefix[cur] - wj, side="left"))
        m = min(m, cur - 1)
        if m <= 0:
            intervals.append((1, cur))
            break
        intervals.append((m + 1, cur))
        cur = m
        if prefix[cur] <= wj:
            lo, hi = intervals.pop()
            intervals.append((1, hi))
            break
    return intervals


def light_remainder_merged(target, intervals, j):
    """Whether the last interval is a greedy cut with the light prefix
    below it merged in: it starts at 1 yet weighs more than w(j)."""
    lo, hi = intervals[-1]
    return lo == 1 and target.prefix_mass(hi) > target.weight_at(j)


class TestWitnessesMatchScalarScan:
    def _check(self, t, js, eps1=0.05):
        merged = 0
        for j in js:
            intervals, wide = partition(t, j, eps1)
            if wide:
                continue
            want = reference_witnesses(t, j, eps1)
            assert intervals == want, j
            merged += light_remainder_merged(t, want, j)
        return merged

    def test_random_targets(self):
        rng = np.random.default_rng(22)
        merged = 0
        for _ in range(30):
            n = int(rng.integers(16, 513))
            t = KnownTarget(make_distribution(rng.random(n) ** 2 + 1e-6))
            sp = t.split(0.05)
            if sp.heavy:
                continue
            merged += self._check(t, range(sp.i_star, n + 1, 3))
        assert merged > 0

    def test_uniform_one_point_witnesses(self):
        n = 2**12
        t = KnownTarget(uniform(n))
        js = [t.split(0.05).i_star, n // 2, n - 1, n]
        self._check(t, js)
        intervals, _ = partition(t, n)
        assert len(intervals) >= n - 3
        assert all(lo == hi for lo, hi in intervals[:-1])

    def test_light_remainder_merged(self):
        # A light head of tiny points below a flat body: the greedy scan
        # ends on a cut whose leftover prefix weighs at most w(j).
        w = np.concatenate((np.full(30, 1e-5), np.full(200, 1.0 / 200)))
        t = KnownTarget(make_distribution(w))
        n = w.size
        assert self._check(t, range(t.split(0.05).i_star, n + 1)) > 0


class TestWitnessChainTable:
    """The cached chain table against the scalar scan, pick by pick."""

    def _check(self, t, js, eps1=0.05, seed=0):
        rng = np.random.default_rng(seed)
        checked = 0
        for j in js:
            wj = t.weight_at(j)
            if wj >= eps1:
                continue
            want = reference_witnesses(t, j, eps1)
            chain = t.witness_chain(wj)
            assert chain.depth[j - 1] == len(want), j
            for picks in (np.arange(len(want)),
                          rng.integers(0, len(want), size=16)):
                lo, hi = chain.resolve(j, picks)
                assert list(zip(lo.tolist(), hi.tolist())) == [
                    want[a] for a in picks], j
            checked += 1
        return checked

    def test_uniform_picks_stay_in_the_run(self):
        # One-point witnesses down to a two-point last interval (1, 2).
        t = KnownTarget(U_16K)
        chain = t.witness_chain(t.weight_at(t.n))
        j = t.n
        assert chain.unit_run[j - 1] == j - 3 == chain.depth[j - 1] - 1
        lo, hi = chain.resolve(j, np.array([0, 1, j - 3, j - 4]))
        assert hi.tolist() == [j - 1, j - 2, 2, 3]
        assert lo.tolist() == [j - 1, j - 2, 1, 3]

    def test_picks_past_the_run_climb(self):
        # Staircase weights: runs of one-point witnesses, then wider ones.
        t = KnownTarget(gen_staircase(2, 4))
        climbed = 0
        for j in range(t.split(0.05).i_star, t.n + 1):
            wj = t.weight_at(j)
            if wj >= 0.05:
                continue
            chain = t.witness_chain(wj)
            depth = int(chain.depth[j - 1])
            lo, hi = chain.resolve(j, np.arange(depth)[::-1])
            # The chain by its parent links, rightmost first.
            nodes = [j - 1]
            while len(nodes) < depth:
                nodes.append(int(chain.up[0][nodes[-1]]))
            assert hi.tolist() == nodes[::-1]
            assert lo.tolist() == chain.lo[nodes[::-1]].tolist()
            climbed += depth > chain.unit_run[j - 1] > 0
        assert climbed > 10

    @pytest.mark.parametrize("last", [0, 1, 2])
    def test_short_chains(self, last):
        t = KnownTarget(make_distribution([1.0, 2.0, 3.0]))
        chain = WitnessChain.build(t.prefix_sums, t.weight_at(1), last)
        assert chain.unit_run.tolist() == [0, 1][:last]
        none = np.empty(0, dtype=np.int64)
        for j in range(1, last + 1):
            lo, hi = chain.resolve(j, none)
            assert lo.size == hi.size == 0
        if last == 2:
            assert [a.tolist() for a in chain.resolve(2, np.array([0]))] == [[1], [1]]
        # The target's own chain for its lightest point has last = 1.
        assert t.witness_chain(t.weight_at(1)).unit_run.tolist() == [0]

    @pytest.mark.parametrize("make", [
        lambda: uniform(2**12),
        lambda: gen_staircase(2, 4),
        lambda: gen_block_profile(256, 4, 11, ["up_down", "down_up"] * 8, 0.25),
        lambda: make_distribution(np.random.default_rng(23).random(600) + 0.05),
    ])
    def test_matches_scalar_scan(self, make):
        t = KnownTarget(make())
        i_star = t.split(0.05).i_star
        js = sorted({i_star, i_star + 1, (i_star + t.n) // 2, t.n - 1, t.n}
                    | set(range(i_star, t.n + 1, max(1, (t.n - i_star) // 40))))
        assert self._check(t, js) >= 5

    def test_every_draw_misses_the_cache(self):
        # All-distinct weights: each position brings a new w(j), so the
        # cache evicts and rebuilds, and the intervals stay the scan's.
        rng = np.random.default_rng(24)
        t = KnownTarget(make_distribution(rng.random(400) ** 2 + 1e-6))
        js = rng.integers(t.split(0.05).i_star, t.n + 1, size=40)
        assert len({t.weight_at(int(j)) for j in js}) > KnownTarget.MAX_CHAINS
        assert self._check(t, [int(j) for j in js]) > KnownTarget.MAX_CHAINS
        assert len(t._chains) == KnownTarget.MAX_CHAINS


@pytest.mark.parametrize("tester, handle", [(pcond_test_known, pcond_handle),
                                             (cond_test_known, cond_handle)])
@pytest.mark.parametrize("n, n_target", [(64, 32), (32, 64)])
def test_domain_mismatch_refused_before_any_draw(tester, handle, n, n_target):
    h = handle(uniform(n))
    state = h.rng.bit_generator.state
    with pytest.raises(DomainMismatch, match=f"domain sizes {n} and {n_target}"):
        tester(h, KnownTarget(uniform(n_target)), 0.5)
    assert h.rng.bit_generator.state == state and h.ledger.total == 0


class TestPcondTestKnown:
    def test_accepts_uniform_target(self):
        u = uniform(256)
        t = KnownTarget(u)
        acc = sum(
            pcond_test_known(pcond_handle(u, s), t, 0.5) == ACCEPT
            for s in range(15)
        )
        assert acc >= 13

    def test_rejects_perturbed_staircase(self):
        t = KnownTarget(gen_staircase(2, 3))
        d = gen_staircase(2, 3, ["up_down"] * 3)
        rej = sum(
            pcond_test_known(pcond_handle(d, s), t, 0.5) == REJECT
            for s in range(15)
        )
        assert rej >= 13

    def test_point_mass_target_bucket_screen(self):
        # Target: all mass on the last point. Any far D lands weight in
        # low buckets whose target mass is 0, beyond the eta/b slack.
        n = 64
        w = np.zeros(n)
        w[-1] = 1.0
        t = KnownTarget(make_distribution(w))
        far = uniform(n)
        rej = sum(
            pcond_test_known(pcond_handle(far, s), t, 0.5) == REJECT
            for s in range(10)
        )
        assert rej == 10


class TestCondTestKnown:
    def test_accepts_uniform_target(self):
        u = uniform(512)
        t = KnownTarget(u)
        acc = sum(
            cond_test_known(cond_handle(u, s), t, 0.5) == ACCEPT
            for s in range(15)
        )
        assert acc >= 13

    def test_rejects_perturbed_staircase(self):
        t = KnownTarget(gen_staircase(2, 4))
        d = gen_staircase(2, 4, ["down_up", "up_down"] * 2)
        rej = sum(
            cond_test_known(cond_handle(d, s), t, 0.5) == REJECT
            for s in range(15)
        )
        assert rej >= 13

    def test_heavy_branch_exact(self):
        # Target holds 1 - eps1/2 on one point: the heavy branch runs
        # and passes on D = D*, fails when eps mass moves away.
        eps = 0.5
        n = 64
        w = np.full(n, (eps / 20.0) / (n - 1))
        w[0] = 1.0 - eps / 20.0
        dstar = make_distribution(w)
        t = KnownTarget(dstar)
        assert t.split(eps / 10.0).heavy
        acc = sum(
            cond_test_known(cond_handle(dstar, s), t, eps) == ACCEPT
            for s in range(10)
        )
        assert acc == 10
        w2 = w.copy()
        w2[0] -= eps
        w2[1:] += eps / (n - 1)
        moved = make_distribution(w2)
        rej = sum(
            cond_test_known(cond_handle(moved, s), t, eps) == REJECT
            for s in range(10)
        )
        assert rej == 10

    def test_query_total_independent_of_n(self):
        totals = set()
        for n in (2**9, 2**11):
            u = uniform(n)
            t = KnownTarget(u)
            h = cond_handle(u, seed=9)
            cond_test_known(h, t, 0.5)
            totals.add(h.ledger.total)
        assert len(totals) == 1

    def test_oblivious_total_on_rejecting_instance(self):
        # Same target, far instance: identical ledger total.
        n = 2**9
        u = uniform(n)
        t = KnownTarget(u)
        h1 = cond_handle(u, seed=9)
        cond_test_known(h1, t, 0.5)
        from condtest.adversarial import gen_half_split

        h2 = cond_handle(gen_half_split(n, 0.5), seed=10)
        cond_test_known(h2, t, 0.5)
        assert h1.ledger.total == h2.ledger.total


U_16K = uniform(2**14)


@st.composite
def chain_walks(draw):
    """A target, a position j above its split whose weight is below
    eps1 = 0.05, and picks into j's witness chain."""
    if draw(st.booleans()):
        t = KnownTarget(U_16K)
    else:
        w = draw(st.lists(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0, 1.0, 2.0, 7.0]),
                          min_size=20, max_size=200))
        assume(any(w))
        t = KnownTarget(make_distribution(w))
    sp = t.split(0.05)
    assume(not sp.heavy)
    j = draw(st.integers(sp.i_star, t.n))
    assume(t.weight_at(j) < 0.05)
    depth = int(t.witness_chain(t.weight_at(j)).depth[j - 1])
    picks = draw(st.lists(st.integers(0, depth - 1), min_size=1, max_size=24))
    return t, j, picks


@given(chain_walks())
@settings(max_examples=150, deadline=None)
def test_resolve_matches_parent_walk(walk):
    """resolve's bit-by-bit climb lands where a step by step walk up the
    parent links does."""
    t, j, picks = walk
    chain = t.witness_chain(t.weight_at(j))
    parent = chain.up[0] if chain.up else None
    nodes = [j - 1]
    while len(nodes) < chain.depth[j - 1]:
        nodes.append(int(parent[nodes[-1]]))
    # unit_run: the one-point intervals the walk meets before another.
    ones = next((i for i, node in enumerate(nodes) if chain.lo[node] != node), len(nodes))
    assert chain.unit_run[j - 1] == ones
    lo, hi = chain.resolve(j, np.array(picks))
    assert lo.dtype == hi.dtype == np.int32
    assert hi.tolist() == [nodes[a] for a in picks]
    assert lo.tolist() == chain.lo[hi].tolist()


def reference_interval_labels(target, lo, hi):
    """KnownTarget.interval_labels's body, which sorts every run, kept
    verbatim as the reference that any faster version must match."""
    lo, hi = np.atleast_1d(lo, hi)
    if (lo == hi).all():
        return target.sorted_order[lo - 1]
    if lo.size == 1:
        return np.sort(target.sorted_order[lo.item() - 1:hi.item()])
    sizes = hi - lo + 1
    seg = np.repeat(np.arange(lo.size), sizes)
    pos = np.arange(seg.size) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    labels = target.sorted_order[pos - 1]
    return labels[np.lexsort((labels, seg))]


@st.composite
def tied_target_intervals(draw):
    """A target whose weights tie often, so that its labels stop rising
    at some position r = _rising < N, and intervals that each lie inside
    1..r, cross r or lie past it."""
    w = draw(st.lists(st.integers(1, 3), min_size=2, max_size=60))
    t = KnownTarget(make_distribution(np.array(w, dtype=float)))
    r, n = t._rising, t.n
    spans = {"inside": (1, r, 1, r), "across": (1, r, r + 1, n),
             "past": (r + 1, n, r + 1, n)}
    intervals = []
    for where in draw(st.lists(st.sampled_from(sorted(spans)), min_size=1, max_size=8)):
        a, b, c, d = spans[where] if r < n else spans["inside"]
        lo = draw(st.integers(a, b))
        intervals.append((lo, draw(st.integers(max(lo, c), d))))
    return t, intervals


@given(tied_target_intervals(), st.sampled_from([np.int32, np.int64]))
@settings(max_examples=300, deadline=None)
def test_interval_labels_match_the_sorting_version(case, dtype):
    """Single intervals, as ints and as arrays, and batches give the
    labels, dtype and order of the version that sorts every run."""
    t, intervals = case
    lo, hi = (np.array(v, dtype=dtype) for v in zip(*intervals))
    calls = [(lo, hi)] + [(a, b) for a, b in intervals]
    calls += [(lo[i:i + 1], hi[i:i + 1]) for i in range(lo.size)]
    for a, b in calls:
        got, want = t.interval_labels(a, b), reference_interval_labels(t, a, b)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist(), (a, b, t._rising)


def test_tied_targets_stop_rising_inside_the_domain():
    """Tied weights keep their label order, so the labels stop rising
    at the last position before a lighter point follows a heavier one."""
    t = KnownTarget(make_distribution([1.0, 1.0, 2.0, 1.0, 3.0, 1.0]))
    assert t.sorted_order.tolist() == [1, 2, 4, 6, 3, 5]
    assert t._rising == 4
