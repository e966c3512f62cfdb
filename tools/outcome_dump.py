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
other side's `src`) and comparing the files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def outcomes(ct, workload, seed, rounds):
    """The workload's trial outcomes, as dicts, in run order."""
    import numpy as np
    import workloads

    profile = ct.resolve_profile("desk")
    cases = workloads.build(ct, workload, profile)
    for case, child in zip(cases, np.random.SeedSequence(seed).spawn(len(cases))):
        case.seed = int(child.generate_state(1, dtype=np.uint64)[0])
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("pair_small_n", "set_small_n", "large_n"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory condtest is imported from (default: this checkout's src)")
    ap.add_argument("--out", default="-", help="output file (default: standard output)")
    args = ap.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    import condtest as ct

    f = sys.stdout if args.out == "-" else open(args.out, "w")
    try:
        for out in outcomes(ct, args.workload, args.seed, args.rounds):
            f.write(json.dumps(out) + "\n")
    finally:
        if f is not sys.stdout:
            f.close()


if __name__ == "__main__":
    main()
