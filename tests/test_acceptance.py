"""Acceptance suite: ten end-to-end criteria, one printed line each.

Statistical criteria use the Wilson decision rule: a contract
"rate >= p" passes when the Wilson 95% lower bound clears p - 0.05.
"""

import math

import numpy as np

import condtest as ct
from condtest.distcore import light_set
from condtest.equality import approx_eval, approx_eval_schedule
from condtest.harness import passes_guarantee, wilson_interval
from condtest.subroutines import HIGH


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def permissive(d, seed, model=ct.COND):
    return ct.OracleHandle(d, model=model, seed=seed, discipline=ct.PERMISSIVE)


def test_criterion_01_oracle_fidelity(capsys):
    rng = np.random.default_rng(101)
    n, m = 256, 10**5
    worst = 0.0
    for _ in range(20):
        d = ct.make_distribution(rng.random(n) ** 2 + 1e-9)
        kind = rng.integers(0, 4)
        if kind == 0:
            s = ct.QuerySet.full()
        elif kind == 1:
            i, j = sorted(rng.choice(np.arange(1, n + 1), 2, replace=False))
            s = ct.QuerySet.pair(int(i), int(j))
        elif kind == 2:
            a, b = sorted(rng.integers(1, n + 1, 2))
            s = ct.QuerySet.interval(int(a), int(max(b, a)))
        else:
            size = int(rng.integers(2, 60))
            s = ct.QuerySet.explicit(
                np.sort(rng.choice(np.arange(1, n + 1), size, replace=False))
            )
        h = permissive(d, int(rng.integers(2**32)))
        draws = h.draw_many(s, m)
        pmf = dict(ct.conditional_pmf(d, s))
        idx, counts = np.unique(draws, return_counts=True)
        freq = dict(zip(idx.tolist(), (counts / m).tolist()))
        tv = 0.5 * sum(
            abs(pmf.get(i, 0.0) - freq.get(i, 0.0)) for i in set(pmf) | set(freq)
        )
        bound = 5.0 * math.sqrt(s.members(n).size / m)
        worst = max(worst, tv / bound)
        if tv > bound:
            break
    report(capsys, 1, worst <= 1.0,
           f"20 conditional histograms at N=256; worst tv/bound = {worst:.3f}")


def test_criterion_02_compare_guarantee(capsys):
    eta, K, delta, trials = 0.1, 2.0, 0.1, 2000
    m = ct.compare_budget(eta, K, delta)
    target = 1.0 - delta - 0.03
    details = []
    ok_all = True
    for r in (1.0, K, 4.0 * K, 1.0 / (4.0 * K)):
        d = ct.make_distribution([1.0, r])
        good = 0
        for s in range(trials):
            out = ct.compare_points(permissive(d, 7000 + s), 1, 2, m, K)
            in_band = out.is_ratio and (1 - eta) * r <= out.rho <= (1 + eta) * r
            if 1.0 / K <= r <= K:
                good += in_band
            elif r > K:
                good += out.tag == HIGH or in_band
            else:
                good += out.is_low or in_band
        lb = wilson_interval(good, trials)[0]
        details.append(f"r={r:g}: lb={lb:.3f}")
        ok_all &= lb >= target
    report(capsys, 2, ok_all,
           f"guarantee cases at eta=0.1 K=2 delta=0.1, need lb>={target}: "
           + ", ".join(details))


def test_criterion_03_estimate_neighborhood(capsys):
    kappa = beta = eta = delta = 0.25
    # desk's sample cap and comparison floors, as find_reference uses them
    en_sched = ct.neighborhood_schedule(kappa, beta, eta, delta, 400, 0.02, 1e-4)
    rng = np.random.default_rng(303)
    fixtures = []
    for _ in range(10):
        d = ct.make_distribution(rng.random(256) ** 2 + 1e-9)
        x = int(rng.integers(1, 257))
        fixtures.append((d, x))
    good = total = 0
    for d, x in fixtures:
        for s in range(50):
            h = permissive(d, 9000 + 97 * total, model=ct.PCOND)
            en = ct.estimate_neighborhood(h, x, en_sched)
            w_exact = ct.neighborhood_mass(d, x, en.alpha)
            if w_exact >= beta:
                match = (1 - eta) * w_exact <= en.w_hat <= (1 + eta) * w_exact
            else:
                match = en.w_hat <= (1 + eta) * beta
            good += match
            total += 1
    rate = good / total
    need = 1.0 - delta - 0.05
    report(capsys, 3, rate >= need,
           f"guarantee match rate {rate:.3f} over {total} trials (need {need})")


def test_criterion_04_pcond_uniformity(capsys):
    T, eps = 200, 0.5
    res_u = ct.run_experiment(ct.ExperimentConfig(
        tester="pcond_uniform", spec=ct.uniform(10**4), eps=eps,
        trials=T, seed=40))
    res_f = ct.run_experiment(ct.ExperimentConfig(
        tester="pcond_uniform", spec=ct.gen_half_split(10**4, 0.5), eps=eps,
        trials=T, seed=41))
    acc_ok = passes_guarantee(res_u.aggregate.accept_count, T, 2 / 3)
    rej_ok = passes_guarantee(T - res_f.aggregate.accept_count, T, 2 / 3)
    budgets = set()
    for n in (10**3, 10**4, 10**5):
        h = permissive(ct.uniform(n), 42, model=ct.PCOND)
        ct.pcond_test_uniform(h, eps)
        budgets.add(h.ledger.total)
    ok = acc_ok and rej_ok and len(budgets) == 1
    report(capsys, 4, ok,
           f"accept {res_u.aggregate.accept_count}/{T}, "
           f"reject {T - res_f.aggregate.accept_count}/{T}, "
           f"budget identical across N grid: {len(budgets) == 1}")


def test_criterion_05_known_target_testers(capsys):
    T, eps = 200, 0.5
    u = ct.uniform(2**10)
    stair = ct.gen_staircase(2, 4)
    pert = ct.gen_staircase(2, 4, ["up_down"] * 4)
    # The fully perturbed staircase moves 1/(4r) per bucket pair; the
    # exact distance from the reference shape is 1/4 (L1 norm 1/2).
    d_exact = ct.tv_distance(stair, pert)
    dist_ok = abs(d_exact - 0.25) < 1e-12
    parts = []
    ok = dist_ok
    for tester in ("pcond_known", "cond_known"):
        for label, d, tgt, want in (
            ("U", u, u, "Accept"),
            ("stair", stair, stair, "Accept"),
            ("pert", pert, stair, "Reject"),
        ):
            res = ct.run_experiment(ct.ExperimentConfig(
                tester=tester, spec=d, spec2=tgt, eps=eps, trials=T, seed=50))
            k = sum(r.verdict == want for r in res.trials)
            good = passes_guarantee(k, T, 2 / 3)
            ok &= good
            parts.append(f"{tester}/{label}:{k}/{T}")
    totals = set()
    for n in (2**10, 2**12, 2**14):
        un = ct.uniform(n)
        res = ct.run_experiment(ct.ExperimentConfig(
            tester="cond_known", spec=un, spec2=un, eps=eps, trials=5, seed=51))
        totals.update(r.ledger.total for r in res.trials)
    ok &= len(totals) == 1
    report(capsys, 5, ok,
           f"exact staircase distance {d_exact:.3f}; " + ", ".join(parts)
           + f"; cond budget N-independent: {len(totals) == 1}")


def test_criterion_06_equality_testers(capsys):
    T, eps, n = 100, 0.5, 256
    u = ct.uniform(n)
    hs = ct.gen_half_split(n, 0.5)
    ok = True
    parts = []
    echoed = None
    for tester in ("pcond_equality", "eval_equality"):
        for label, d2, want in (("same", u, "Accept"), ("far", hs, "Reject")):
            res = ct.run_experiment(ct.ExperimentConfig(
                tester=tester, spec=u, spec2=d2, eps=eps, trials=T, seed=60))
            k = sum(r.verdict == want for r in res.trials)
            ok &= passes_guarantee(k, T, 2 / 3)
            parts.append(f"{tester}/{label}:{k}/{T}")
            echoed = res.profile_echo
    ok &= echoed is not None and echoed["name"] == "desk"
    report(capsys, 6, ok,
           ", ".join(parts) + f"; desk profile echoed: {echoed['name']}")


def test_criterion_07_approx_eval(capsys):
    eps, delta, n = 0.25, 0.2, 2**10
    budget = approx_eval_schedule(n, eps, delta)
    need = 1.0 - delta - 0.05
    ok = True
    parts = []
    for label, d in (
        ("uniform", ct.uniform(n)),
        ("geometric", ct.make_distribution(0.5 ** np.arange(1, n + 1))),
    ):
        light = set(light_set(d, eps).tolist())
        sampler = ct.OracleHandle(d, model=ct.SAMP, seed=70)
        pts = [int(x) for x in sampler.draw_many(ct.QuerySet.full(), 5000)
               if int(x) not in light][:100]
        assert len(pts) == 100
        good = 0
        for j, x in enumerate(pts):
            h = ct.OracleHandle(d, model=ct.COND, seed=7000 + j,
                                discipline=ct.STRICT)
            out = approx_eval(h, x, budget)
            exact = d.weight(x)
            good += out.is_value and (
                (1 - eps) * exact <= out.estimate <= (1 + eps) * exact
            )
        rate = good / 100
        ok &= rate >= need
        parts.append(f"{label}:{rate:.2f}")
    # Strict discipline active throughout; a violation would have raised.
    report(capsys, 7, ok,
           "Value-within-(1 +- eps) rates " + ", ".join(parts)
           + f" (need {need}); strict discipline never tripped")


def test_criterion_08_distance_estimator(capsys):
    eps, T, n = 0.25, 100, 256
    cases = [
        ("U", ct.uniform(n)),
        ("half_split", ct.gen_half_split(n, 0.25)),
        ("block_profile",
         ct.gen_block_profile(n, 4, 11, ["up_down", "down_up"] * 8, 0.25)),
    ]
    ok = True
    parts = []
    for label, d in cases:
        exact = ct.tv_distance(d, ct.uniform(n))
        k = 0
        for s in range(T):
            h = ct.OracleHandle(d, model=ct.PCOND, seed=8000 + s,
                                discipline=ct.STRICT)
            k += abs(ct.estimate_distance_to_uniformity(h, eps) - exact) <= eps
        ok &= passes_guarantee(k, T, 2 / 3)
        parts.append(f"{label}:{k}/{T}")
    report(capsys, 8, ok, "within-eps counts " + ", ".join(parts))


def test_criterion_09_icond_tester(capsys):
    T, eps = 200, 0.5
    n = 2**12
    rng = np.random.default_rng(90)
    block = ct.rand_block_profile(n, eps, rng, x=6)
    res_u = ct.run_experiment(ct.ExperimentConfig(
        tester="icond_uniform", spec=ct.uniform(n), eps=eps, trials=T, seed=91))
    res_f = ct.run_experiment(ct.ExperimentConfig(
        tester="icond_uniform", spec=block, eps=eps, trials=T, seed=92))
    acc_ok = passes_guarantee(res_u.aggregate.accept_count, T, 2 / 3)
    rej_ok = passes_guarantee(T - res_f.aggregate.accept_count, T, 2 / 3)
    sw = ct.scaling_sweep("icond_uniform", [2**10, 2**12, 2**14], eps,
                          trials=5, seed=93)
    qs = np.array([q for _, q in sw.rows])
    ls = np.array([math.log2(m) ** 3 for m, _ in sw.rows])
    c = float((qs * ls).sum() / (ls * ls).sum())
    resid = float(np.max(np.abs(qs - c * ls) / qs))
    ok = acc_ok and rej_ok and resid <= 0.5
    report(capsys, 9, ok,
           f"accept {res_u.aggregate.accept_count}/{T}, "
           f"reject {T - res_f.aggregate.accept_count}/{T}, "
           f"cubic-in-log fit residual {resid:.3f} (<= 0.5)")


def test_criterion_10_exact_math(capsys):
    rng = np.random.default_rng(1000)
    ok = True
    # tv metric axioms on random triples
    for _ in range(20):
        ds = [ct.make_distribution(rng.random(32) + 1e-9) for _ in range(3)]
        a, b, c = (ct.tv_distance(x, y) for x, y in
                   ((ds[0], ds[1]), (ds[1], ds[2]), (ds[0], ds[2])))
        ok &= 0 <= a <= 1 and ct.tv_distance(ds[0], ds[0]) == 0.0
        ok &= abs(a - ct.tv_distance(ds[1], ds[0])) == 0.0
        ok &= c <= a + b + 1e-12
    # mean-psi identity
    for _ in range(20):
        d = ct.make_distribution(rng.random(64) ** 2 + 1e-12)
        ok &= abs(float(ct.psi_vector(d).mean())
                  - ct.tv_distance(d, ct.uniform(64))) <= 1e-10
    # generator closed forms
    ok &= abs(ct.tv_distance(ct.gen_half_split(1024, 0.3), ct.uniform(1024))
              - 0.3) <= 1e-12
    ok &= abs(ct.tv_distance(ct.gen_staircase(2, 4),
                             ct.gen_staircase(2, 4, ["up_down"] * 4))
              - 0.25) <= 1e-12
    ok &= abs(ct.tv_distance(
        ct.gen_block_profile(256, 4, 5, ["down_up", "up_down"] * 8, 0.2),
        ct.uniform(256)) - 0.2) <= 1e-12
    # witness partitions against exact cut constraints
    checked = 0
    for _ in range(50):
        n = int(rng.integers(32, 513))
        t = ct.KnownTarget(ct.make_distribution(rng.random(n) ** 2 + 1e-9))
        sp = t.split(0.05)
        if sp.heavy:
            continue
        for j in (sp.i_star, n):
            parts = ct.build_witnesses(t, j, 0.05)
            wj = t.weight_at(j)
            covered = []
            for lo, hi in parts.intervals:
                covered.extend(range(lo, hi + 1))
                mass = t.prefix_mass(hi) - t.prefix_mass(lo - 1)
                if not parts.heavy:
                    # greedy partitions bound every witness mass; the
                    # single wide witness of a heavy point does not
                    cap = 2.0 * wj if lo == 1 else wj
                    ok &= mass <= cap + 1e-12
                    if lo != 1:
                        ok &= mass >= wj / 2.0 - 1e-12
            ok &= sorted(covered) == list(range(1, j))
            checked += 1
    ok &= checked >= 50
    report(capsys, 10, ok,
           f"metric axioms, mean-psi identity, generator closed forms, "
           f"{checked} witness partitions verified")
