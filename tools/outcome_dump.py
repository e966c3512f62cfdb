"""Per-trial outcomes of a benchmark workload, as JSON lines.

    python3 tools/outcome_dump.py --workload large_n --seed 11 --rounds 2 > out.jsonl

Builds the workload's cases with `perfbench/workloads.py` and seeds
them as `perfbench/worker.py` does: case c gets the first word of the
c-th child of `SeedSequence(seed)`, and round r runs it with that seed
^ r, through `harness.run_experiment` with one trial. Each trial writes
one line, rounds outer and cases inner:

    {"case": ..., "seed": ..., "verdict": ..., "estimate": ..., "ledger": {...}}

or {"case": ..., "seed": ..., "error": "Type: message"} when the trial
raised. No timings are written, so two runs of the same code give the
same bytes, and a change that claims to keep behaviour seed for seed
can be checked by running this on both sides (`--src` points at the
other side's `src`) and comparing the files. `--against OTHER_SRC`
does both in one command:

    python3 tools/outcome_dump.py --workload large_n --seed 11 --rounds 20 --against ../parent/src

It runs the workload once on `--src` and once on OTHER_SRC, each in a
process of its own, prints the first trial whose lines differ and exits
1 on any difference, or prints the number of identical trials and
exits 0. `--case SUBSTRING` keeps only the cases whose name holds
SUBSTRING, each with the seed it has in the whole workload, so many
rounds of a few cases run in seconds:

    python3 tools/outcome_dump.py --workload set_small_n --seed 11 --rounds 200 \
        --case eval_equality --against ../parent/src

`--workload all` runs pair_small_n, set_small_n and large_n in turn,
each seeded as on its own, so its dump is the three dumps one after the
other. With `--against` it compares one workload at a time, prints
"WORKLOAD: N trials identical" for each, and stops at the first
difference with exit code 1:

    python3 tools/outcome_dump.py --workload all --seed 11 --rounds 20 --against ../parent/src
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pair_small_n", "set_small_n", "large_n")


def outcomes(ct, workload, seed, rounds, case_filter=""):
    """The workload's trial outcomes, as dicts, in run order; only the
    cases whose name holds case_filter."""
    import numpy as np
    import workloads

    profile = ct.resolve_profile("desk")
    cases = workloads.build(ct, workload, profile)
    for case, child in zip(cases, np.random.SeedSequence(seed).spawn(len(cases))):
        case.seed = int(child.generate_state(1, dtype=np.uint64)[0])
    cases = [case for case in cases if case_filter in case.name]
    for r in range(rounds):
        for case in cases:
            trial_seed = case.seed ^ r
            cfg = ct.ExperimentConfig(tester=case.tester, spec=case.spec,
                                      spec2=case.spec2, eps=case.eps, trials=1,
                                      seed=trial_seed, profile=profile)
            out = {"case": case.name, "seed": trial_seed}
            try:
                rec = ct.harness.run_experiment(cfg).trials[0]
            except Exception as exc:  # recorded, like a failed benchmark trial
                out["error"] = f"{type(exc).__name__}: {exc}"
            else:
                out.update(verdict=rec.verdict, estimate=rec.estimate,
                           ledger=rec.ledger.as_dict())
            yield out


def compare(args, workload, prefix=""):
    """Dump the workload on args.src and on args.against, each in its
    own process; report the first difference, each line after prefix.
    Returns the exit code."""
    sides = []
    for src in (args.src, args.against):
        cmd = [sys.executable, __file__, "--workload", workload,
               "--seed", str(args.seed), "--rounds", str(args.rounds),
               "--case", args.case, "--src", src]
        sides.append(subprocess.run(cmd, check=True, capture_output=True,
                                    text=True).stdout.splitlines())
    mine, theirs = sides
    for i, (a, b) in enumerate(itertools.zip_longest(mine, theirs)):
        if a != b:
            print(f"{prefix}trial {i} differs:\n  {args.src}: {a}\n  {args.against}: {b}")
            return 1
    print(f"{prefix}{len(mine)} trials identical")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="a benchmark workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--case", default="", metavar="SUBSTRING",
                    help="dump only the cases whose name holds SUBSTRING (default: all)")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory condtest is imported from (default: this checkout's src)")
    ap.add_argument("--out", default="-", help="output file (default: standard output)")
    ap.add_argument("--against", metavar="OTHER_SRC",
                    help="compare with the dump of OTHER_SRC instead of writing one")
    args = ap.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.against:
        for workload in workloads:
            prefix = f"{workload}: " if args.workload == "all" else ""
            if compare(args, workload, prefix):
                sys.exit(1)
        sys.exit(0)
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    import condtest as ct

    f = sys.stdout if args.out == "-" else open(args.out, "w")
    try:
        for workload in workloads:
            for out in outcomes(ct, workload, args.seed, args.rounds, args.case):
                f.write(json.dumps(out) + "\n")
    finally:
        if f is not sys.stdout:
            f.close()


if __name__ == "__main__":
    main()
