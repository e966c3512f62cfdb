"""Two-sample law check of the testers' outcomes on two source trees.

    python3 tools/law_check.py --against ../parent/src --trials 2000 --case eval_equality

The paper's claims are accept rates and query counts: laws over the
draws, not seed streams. A change that moves random numbers is checked
here against its parent in law. Each instance of a grid (by default the
golden grid's, `tests/test_golden_grid.py`'s `grid()`) runs --trials
seeded trials through `harness.run_trial` on `--src` (side A) and on
OTHER_SRC (side B), each side in a process of its own (outcome_dump's
runner). Side A takes the seeds SEED, SEED + 1, ...; side B takes
OTHER_SEED, OTHER_SEED + 1, ..., by default SEED + TRIALS, so the two
ranges are disjoint. `--case SUBSTRING` keeps the instances whose name
holds SUBSTRING, and `--profile JSON` runs every trial with those
overrides on the desk profile:

    python3 tools/law_check.py --against ../parent/src --trials 2000 \\
        --grid tests/test_batched.py --case _wide --profile '{"ae_kappa_c": 3e5}'

For each (tester, instance, eps) it prints the accept counts on each
side, a Newcombe hybrid-score interval for the difference of the two
accept rates (built from `harness.wilson_interval`), and for each
ledger column, and for an estimator's estimate, the two-sample
Kolmogorov-Smirnov statistic D against its critical value. A row is
outside when its interval leaves out 0, when a D exceeds its critical
value, or when a trial raised on either side. The whole run is at level
0.05: each of a row's six tests (the accept rate, or an estimator's
estimate, and five ledger columns) is made at 0.05 / (6 x rows), so a
run of one tree against itself flags a row with probability at most
0.05. The KS critical value is the asymptotic sqrt(-ln(a/2)/2) x
sqrt((n + m)/(n m)), which is conservative on ledgers with ties.
Prints one line a row and a summary, and exits 1 when any row is
outside, 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from pathlib import Path
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from outcome_dump import run_sides

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_GRID = ROOT / "tests" / "test_golden_grid.py"
COLUMNS = ("samp", "cond", "pcond", "icond", "total")
TESTS_PER_ROW = 1 + len(COLUMNS)
LEVEL = 0.05  # of the whole run


def load_grid(path):
    """The (name, tester, d1, second, eps, seeds) entries of the grid()
    function of the Python file at path."""
    spec = importlib.util.spec_from_file_location("law_check_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.grid()


def outcomes(ct, grid, seeds, profile):
    """One dict a (trial seed, instance): its row name, seed, and verdict,
    estimate and ledger, or the error it raised."""
    for seed in seeds:
        for name, tester, d1, second, eps, _ in grid:
            aux = ct.KnownTarget(second) if ct.TESTERS[tester].second == "target" else second
            out = {"row": f"{name} eps={eps}", "seed": seed}
            try:
                rec = ct.harness.run_trial(tester, d1, aux, eps, seed, profile)
            except Exception as exc:  # a finding, reported on the row
                out["error"] = f"{type(exc).__name__}: {exc}"
            else:
                out.update(verdict=rec.verdict, estimate=rec.estimate,
                           ledger=rec.ledger.as_dict())
            yield out


def rate_interval(k1, n1, k2, n2, z):
    """Newcombe's hybrid score interval for k1/n1 - k2/n2, from the two
    Wilson intervals at z."""
    from condtest.harness import wilson_interval

    p1, p2 = k1 / n1, k2 / n2
    (l1, u1), (l2, u2) = wilson_interval(k1, n1, z), wilson_interval(k2, n2, z)
    d = p1 - p2
    return (d - math.hypot(p1 - l1, u2 - p2), d + math.hypot(u1 - p1, p2 - l2))


def ks_statistic(a, b):
    """The two-sample KS statistic: the largest gap between the
    empirical distribution functions of the samples a and b."""
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    at = np.concatenate((a, b))
    gap = (np.searchsorted(a, at, side="right") / a.size
           - np.searchsorted(b, at, side="right") / b.size)
    return float(np.abs(gap).max())


def ks_critical(n1, n2, alpha):
    """The asymptotic critical value of the KS statistic at level alpha."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) * math.sqrt((n1 + n2) / (n1 * n2))


class Row(NamedTuple):
    name: str
    accepts: tuple     # (side A's, side B's)
    trials: tuple
    interval: tuple    # the difference of accept rates, A - B
    ks: dict           # column or "estimate" -> (D, critical value)
    errors: tuple
    outside: bool


def compare_row(name, a, b, alpha):
    """The Row of two sides' outcome lists, each test at level alpha."""
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    trials = len(a), len(b)
    accepts = tuple(sum(o.get("verdict") == "Accept" for o in side) for side in (a, b))
    interval = rate_interval(accepts[0], trials[0], accepts[1], trials[1], z)
    ran = [[o for o in side if "error" not in o] for side in (a, b)]
    columns = COLUMNS + (("estimate",) if any(o["verdict"] == "" for o in ran[0] + ran[1])
                         else ())
    ks = {}
    if all(ran):
        for col in columns:
            samples = [[o["estimate"] if col == "estimate" else o["ledger"][col]
                        for o in side] for side in ran]
            ks[col] = (ks_statistic(*samples), ks_critical(len(ran[0]), len(ran[1]), alpha))
    errors = trials[0] - len(ran[0]), trials[1] - len(ran[1])
    outside = (not interval[0] <= 0.0 <= interval[1] or any(errors)
               or any(d > crit for d, crit in ks.values()))
    return Row(name, accepts, trials, interval, ks, errors, outside)


def compare_sides(a, b):
    """Rows for the outcomes of sides a and b, each a dict from row name
    to a list of outcome dicts, every test at LEVEL / (6 x rows)."""
    alpha = LEVEL / (TESTS_PER_ROW * len(a))
    return [compare_row(name, a[name], b[name], alpha) for name in a]


def format_row(row):
    (ka, kb), (na, nb) = row.accepts, row.trials
    lo, hi = row.interval
    ks = " ".join(f"{col} {d:.3f}/{crit:.3f}" for col, (d, crit) in row.ks.items())
    errors = f" errors {row.errors[0]}/{row.errors[1]}" if any(row.errors) else ""
    verdict = "OUTSIDE" if row.outside else "ok"
    return (f"{row.name}: accept {ka}/{na} vs {kb}/{nb}, diff [{lo:+.3f}, {hi:+.3f}];"
            f" KS {ks}{errors}: {verdict}")


def by_row(lines):
    rows = {}
    for line in lines:
        out = json.loads(line)
        rows.setdefault(out.pop("row"), []).append(out)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="OTHER_SRC", help="side B's condtest sources")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="side A's condtest sources (default: this checkout's src)")
    ap.add_argument("--trials", type=int, default=2000, help="trials a side and instance")
    ap.add_argument("--seed", type=int, default=0, help="side A's first trial seed")
    ap.add_argument("--other-seed", type=int,
                    help="side B's first trial seed (default: SEED + TRIALS)")
    ap.add_argument("--case", default="", metavar="SUBSTRING",
                    help="only the instances whose name holds SUBSTRING (default: all)")
    ap.add_argument("--profile", default="{}", metavar="JSON",
                    help="overrides on the desk profile, as a JSON object")
    ap.add_argument("--grid", default=str(GOLDEN_GRID),
                    help="a Python file whose grid() lists the instances")
    ap.add_argument("--side", action="store_true",
                    help="write one side's outcomes as JSON lines instead of comparing")
    args = ap.parse_args(argv)
    if args.side:
        sys.path.insert(0, args.src)
        import condtest as ct

        grid = [g for g in load_grid(args.grid) if args.case in g[0]]
        seeds = range(args.seed, args.seed + args.trials)
        for out in outcomes(ct, grid, seeds, json.loads(args.profile)):
            print(json.dumps(out))
        return
    if not args.against:
        ap.error("--against OTHER_SRC is required")
    sys.path.insert(0, str(ROOT / "src"))
    other_seed = args.seed + args.trials if args.other_seed is None else args.other_seed
    common = ["--side", "--trials", str(args.trials), "--case", args.case,
              "--profile", args.profile, "--grid", args.grid]
    a, b = (by_row(lines) for lines in run_sides(__file__, [
        [*common, "--src", args.src, "--seed", str(args.seed)],
        [*common, "--src", args.against, "--seed", str(other_seed)]]))
    if not a:
        ap.error(f"no instance of {args.grid} has a name holding {args.case!r}")
    rows = compare_sides(a, b)
    for row in rows:
        print(format_row(row))
    outside = sum(row.outside for row in rows)
    tests = TESTS_PER_ROW * len(rows)
    print(f"{len(rows)} rows, {tests} tests at {LEVEL:g} / {tests} each: "
          + (f"{outside} outside" if outside else "all inside"))
    sys.exit(1 if outside else 0)


if __name__ == "__main__":
    main()
