"""Median microseconds per call of the oracle's comparisons, at fixed shapes.

    python3 tools/kernel_cost.py --repeat 7 --number 200

Times each call below with timeit, `--number` calls a sample and
`--repeat` samples of each, taken in turn, and prints one JSON line whose "us" maps each name
to the median sample's microseconds per call:

    compare_points             one scalar pair comparison, U(1024)
    draw_subset_count_pair     draw_subset_count on a pair, U(1024)
    pair_1/_64                 draw_subset_counts on 1 and 64 pairs
    interval_1                 draw_subset_counts on one interval
    union_points               draw_subset_counts on the unions of x with
                               16 one-point sets
    union_wide                 draw_subset_counts on the unions of x with
                               16 sets of 2-16 points
    interval_labels            16 intervals of the staircase target
                               gen_staircase(2, 4), as cond_known reads
    classify                   16 counts

Every handle is STRICT, under COND, and every x was returned by the
handle, as in the testers. The tracer in perfbench/ charges about 1 us
to each span and does not trace draw_subset_counts, so a saving of a few
microseconds a call shows here and not in its layer metrics.

`--against OTHER_SRC` times both trees, each in a process of its own,
`--rounds` times (20 by default), alternating which runs first, and
prints one JSON line with each side's median over the rounds and
against_over_src, their ratio (above 1 where `--src` is cheaper):

    python3 tools/kernel_cost.py --against ../parent/src

On two shared x86-64 cores, six processes a side could not judge a 5 %
bound: a row whose code is the same on both sides read 0.92-1.32x, as
machine load moved every row together. Twenty settled such rows to
1.000-1.002x.

Both trees must take the calls above. To compare across a change of
those calls, run each tree's own copy of this tool, alternating.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
M = 1000


def calls(ct):
    """The timed calls, by name, as argument-free callables."""
    import numpy as np
    from condtest.distcore import EXPLICIT, INTERVAL, PAIR, QuerySet
    from condtest.oracles import COND, STRICT, OracleHandle
    from condtest.subroutines import classify, compare_points

    d = ct.uniform(2**10)
    h = OracleHandle(d, model=COND, seed=0, discipline=STRICT)
    x = int(h.draw_many(QuerySet.full(), 1)[0])
    rng = np.random.default_rng(0)
    others = np.setdiff1d(np.arange(1, d.n + 1), [x])
    ys = rng.choice(others, size=64, replace=False)
    y = int(ys[0])
    sizes = rng.integers(2, 17, size=16)
    wide = np.concatenate([np.sort(rng.choice(others, size=s, replace=False))
                           for s in sizes.tolist()])
    lo = min(max(1, x - 8), d.n - 16)
    iv = [np.array([v]) for v in (lo, lo + 16, lo, lo + 3)]
    pair, sub = QuerySet.pair(x, y), QuerySet.explicit([y])

    stair = ct.KnownTarget(ct.gen_staircase(2, 4))
    lo16 = np.sort(rng.integers(1, stair.n - 8, size=16))
    hi16 = lo16 + rng.integers(0, 8, size=16)
    hits = rng.integers(0, M + 1, size=16)
    return {
        "compare_points": lambda: compare_points(h, x, y, M, 2.0),
        "draw_subset_count_pair": lambda: h.draw_subset_count(pair, sub, M),
        "pair_1": lambda: h.draw_subset_counts(PAIR, (x, ys[:1]), M),
        "pair_64": lambda: h.draw_subset_counts(PAIR, (x, ys), M),
        "interval_1": lambda: h.draw_subset_counts(INTERVAL, iv, M),
        "union_points": lambda: h.draw_subset_counts(
            EXPLICIT, (x, ys[:16], np.ones(16, dtype=np.int64)), M),
        "union_wide": lambda: h.draw_subset_counts(EXPLICIT, (x, wide, sizes), M),
        "interval_labels": lambda: stair.interval_labels(lo16, hi16),
        "classify": lambda: classify(hits, M, 4.0),
    }


def measure(src, repeat, number):
    """{name: median microseconds per call} for condtest imported from
    src. The samples go round the calls in turn, so that a burst of load
    on the machine spreads over all of them."""
    sys.path.insert(0, src)
    import condtest as ct

    fns = calls(ct)
    samples = {name: [] for name in fns}
    for _ in range(repeat):
        for name, fn in fns.items():
            samples[name].append(timeit.timeit(fn, number=number))
    return {name: statistics.median(s) / number * 1e6 for name, s in samples.items()}


def against(args):
    """Both trees' medians over args.rounds alternating processes each."""
    sides = (args.src, args.against)
    runs = ([], [])
    for i in range(args.rounds):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            cmd = [sys.executable, __file__, "--repeat", str(args.repeat),
                   "--number", str(args.number), "--src", sides[side]]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            runs[side].append(json.loads(out)["us"])
    mine, theirs = ({name: statistics.median(r[name] for r in rs) for name in rs[0]}
                    for rs in runs)
    return {"src": args.src, "against": args.against, "rounds": args.rounds,
            "repeat": args.repeat, "number": args.number,
            "us": {name: {"src": mine[name], "against": theirs[name]} for name in mine},
            "against_over_src": {name: theirs[name] / mine[name] for name in mine}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7, help="timeit samples per call")
    ap.add_argument("--number", type=int, default=200, help="calls per sample")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory condtest is imported from (default: this checkout's src)")
    ap.add_argument("--against", metavar="OTHER_SRC",
                    help="time OTHER_SRC as well, in alternating processes")
    ap.add_argument("--rounds", type=int, default=20,
                    help="processes per side with --against")
    args = ap.parse_args(argv)
    if args.against:
        print(json.dumps(against(args)))
        return
    import numpy as np

    print(json.dumps({"src": args.src, "python": sys.version.split()[0],
                      "numpy": np.__version__, "repeat": args.repeat,
                      "number": args.number,
                      "us": measure(args.src, args.repeat, args.number)}))


if __name__ == "__main__":
    main()
