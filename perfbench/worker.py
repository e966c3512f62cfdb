"""One benchmark process: set up one workload, then measure it.

    python3 perfbench/worker.py setup   --workload W --seed S
    python3 perfbench/worker.py measure --workload W --seed S --seconds T --trace 0|1

`run.py` starts this with `src` on PYTHONPATH and one BLAS/OpenMP
thread; it prints one JSON object on its last line. `setup` only times
set-up. `measure` with --trace 0 runs whole rounds (every case once per
round) until --seconds have passed and reports the end-to-end metrics.
With --trace 1 it runs rounds untraced for half the time, installs the
span tracer, replays the same rounds traced, checks that every trial's
(verdict, estimate, ledger) is the same in both passes and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TESTER_IDS = ("pcond_uniform", "icond_uniform", "pcond_known", "cond_known",
              "pcond_equality", "eval_equality", "dist_uniformity")
# The testers' contract is a 2/3 success rate per case; a workload whose
# share of correct outcomes falls below it is reported as incorrect.
MIN_CORRECT_SHARE = 2.0 / 3.0
# Trials beyond the tail percentile.
TAIL_BEYOND = 10
# Spans whose calls per trial are reported, with self time except for
# members(), and spans whose self time alone is reported.
COUNTED_SPANS = (
    "oracles.OracleHandle.draw_many", "oracles.OracleHandle.draw_counts",
    "oracles.OracleHandle.draw_subset_count", "oracles.OracleHandle.burn",
    "subroutines.compare", "subroutines.compare_points",
    "subroutines.estimate_neighborhood", "distcore.QuerySet.members",
    "distcore.QuerySet.explicit", "distcore.Distribution.mass",
    "identity.build_witnesses", "identity.KnownTarget.prefix_labels",
    "identity.KnownTarget.interval_labels", "interval.binary_descent",
    "equality.approx_eval", "distance.find_reference",
)
TIMED_SPANS = (
    "identity.pcond_test_known", "identity.cond_test_known",
    "interval.icond_test_uniform", "uniformity.pcond_test_uniform",
    "equality.pcond_test_equality", "equality.eval_test_equality",
    "distance.estimate_distance_to_uniformity",
    "harness.run_experiment", "harness.run_trial", "harness.aggregate",
)
# Machine speed drifts over seconds. The calibration kernel is read
# between trials at most this often ...
KERNEL_EVERY_S = 0.5
# ... and the median of its readings this close to a trial is the
# trial's slowdown.
SPEED_WINDOW_S = 1.0


@dataclass
class Trial:
    case: str
    tester: str
    seed: int
    verdict: str = ""
    estimate: float = None
    ledger: dict = None
    tester_ms: float = None   # the harness's TrialRecord.millis
    wall_ms: float = None     # run_experiment call, as a caller sees it
    factor: float = 1.0       # machine slowdown around the trial
    error: str = None         # exception, or the ledger invariant broken
    correct: bool = False

    def outcome(self):
        return (self.case, self.seed, self.verdict, self.estimate,
                self.ledger, self.error)

    @property
    def ref_ms(self):
        """wall_ms at reference machine speed."""
        return self.wall_ms / self.factor


def setup(workload, seed):
    """Import condtest and build the workload; returns (ct, profile,
    cases, set-up seconds, calibration kernel)."""
    t0 = perf_counter()
    import numpy as np
    import condtest as ct
    import workloads

    profile = ct.resolve_profile("desk")
    cases = workloads.build(ct, workload, profile)
    for case, child in zip(cases, np.random.SeedSequence(seed).spawn(len(cases))):
        case.seed = int(child.generate_state(1, dtype=np.uint64)[0])
    setup_s = perf_counter() - t0
    # Imported after timing: it is the benchmark's, not condtest's.
    import speed
    return ct, profile, cases, setup_s, speed.Kernel()


def run_case(ct, case, r, profile):
    seed = case.seed ^ r
    cfg = ct.ExperimentConfig(tester=case.tester, spec=case.spec,
                              spec2=case.spec2, eps=case.eps, trials=1,
                              seed=seed, profile=profile)
    trial = Trial(case.name, case.tester, seed)
    t0 = perf_counter()
    try:
        # Looked up on the module each call, so the traced pass goes
        # through the tracer's wrapper.
        res = ct.harness.run_experiment(cfg)
    except Exception as exc:  # a failed trial is counted, not fatal
        trial.wall_ms = (perf_counter() - t0) * 1000.0
        trial.error = f"{type(exc).__name__}: {exc}"
        return trial
    trial.wall_ms = (perf_counter() - t0) * 1000.0
    rec = res.trials[0]
    led = rec.ledger
    trial.verdict, trial.estimate = rec.verdict, rec.estimate
    trial.ledger = led.as_dict()
    trial.tester_ms = rec.millis
    columns = (led.samp_count, led.cond_count, led.pcond_count, led.icond_count)
    if rec.seed != seed:
        trial.error = f"trial ran with seed {rec.seed}, not {seed}"
    elif any(not isinstance(c, int) or c < 0 for c in columns):
        trial.error = f"bad ledger columns {columns}"
    elif trial.ledger["total"] != sum(columns):
        trial.error = f"ledger total {trial.ledger['total']} != column sum"
    elif case.ledger_total is not None and led.total != case.ledger_total:
        trial.error = f"ledger total {led.total} != expected {case.ledger_total}"
    else:
        trial.correct = case.is_correct(rec.verdict, rec.estimate)
    return trial


def run_rounds(ct, cases, profile, kernel, seconds=None, rounds=None):
    """Whole rounds until `seconds` have passed, or exactly `rounds`.

    The calibration kernel runs between trials, at most every
    KERNEL_EVERY_S and always after the last. A trial's slowdown is the
    median of the readings from SPEED_WINDOW_S before it to
    SPEED_WINDOW_S after it.
    """
    trials = []
    times, factors = [], []   # kernel readings

    def read_kernel():
        factors.append(kernel.factor())
        times.append(perf_counter())

    read_kernel()
    spans = []
    r = 0
    t0 = perf_counter()
    while (r < rounds) if rounds is not None else (
            r == 0 or perf_counter() - t0 < seconds):
        for case in cases:
            start = perf_counter()
            trials.append(run_case(ct, case, r, profile))
            end = perf_counter()
            spans.append((start, end))
            if end - times[-1] >= KERNEL_EVERY_S:
                read_kernel()
        r += 1
    wall_s = perf_counter() - t0
    if times[-1] < spans[-1][1]:
        read_kernel()
    for trial, (start, end) in zip(trials, spans):
        lo = bisect.bisect_left(times, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(times, end + SPEED_WINDOW_S)
        trial.factor = statistics.median(factors[lo:hi])
    return trials, r, wall_s


def tail(values):
    """(percentile, value): the highest percentile with TAIL_BEYOND
    values beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def summary(trials, cases):
    """Counts, shares and correctness checks shared by both modes."""
    n = len(trials)
    failed = sum(t.error is not None for t in trials)
    correct = sum(t.correct for t in trials)
    seeds = [(t.case, t.seed) for t in trials]
    distinct_seeds = len({s for _, s in set(seeds)}) == len(set(seeds))
    per_case = {}
    for case in cases:
        mine = [t for t in trials if t.case == case.name]
        per_case[case.name] = {
            "tester": case.tester,
            "expected": case.want,
            "eps": case.eps,
            "ledger_total": case.ledger_total,
            "cfg_seed": case.seed,
            "trials": len(mine),
            "correct": sum(t.correct for t in mine),
            "failed": sum(t.error is not None for t in mine),
            "trial_seeds": [t.seed for t in mine],
        }
    errors = sorted({f"{t.case}: {t.error}" for t in trials if t.error})
    return {
        "attempted": n,
        "failed": failed,
        "correct_share": correct / n,
        "distinct_trial_seeds": distinct_seeds,
        "cases": per_case,
        "errors": errors[:20],
    }


def e2e_metrics(trials):
    ref = [t.ref_ms for t in trials]
    n = len(trials)
    pct, tail_ms = tail(ref)
    metrics = {
        "trials_per_s": (n * 1000.0 / sum(ref), "trials/s"),
        "trial_ms_p50": (statistics.median(ref), "ms"),
        "trial_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "completed_share": (sum(t.error is None for t in trials) / n, "ratio"),
        "correct_share": (sum(t.correct for t in trials) / n, "ratio"),
    }
    wall = [t.wall_ms for t in trials]
    samples = {
        "trial_ms_p50": {"percentile": 50.0, "samples": n},
        "trial_ms_tail": {"percentile": pct, "samples": n},
        "wall_clock": {"trials_per_s": n * 1000.0 / sum(wall),
                       "trial_ms_p50": statistics.median(wall),
                       "trial_ms_tail": tail(wall)[1],
                       "slowdown_p50": statistics.median(t.factor for t in trials)},
    }
    return metrics, samples


def layer_metrics(untraced, traced, tracer):
    n = len(traced)
    # Span times are scaled to reference speed by the traced pass's
    # median slowdown.
    factor = statistics.median(t.factor for t in traced)
    metrics = {}

    def per_trial(name, span, stat, unit):
        if stat == "calls":
            value = tracer.calls[span] / n
        else:
            value = tracer.self_s[span] * 1000.0 / n / factor
        metrics[name] = (value, unit)

    # Metric names drop the class of the oracle primitives.
    for span in COUNTED_SPANS:
        name = span.replace("OracleHandle.", "")
        per_trial(f"{name}.calls", span, "calls", "calls/trial")
        if span != "distcore.QuerySet.members":
            per_trial(f"{name}.self_ms", span, "self", "ms/trial")
    for span in TIMED_SPANS:
        per_trial(f"{span}.self_ms", span, "self", "ms/trial")

    totals = [t.ledger["total"] for t in traced if t.ledger is not None]
    primitive_calls = sum(tracer.calls[s] for s in COUNTED_SPANS
                          if s.startswith("oracles."))
    metrics["oracles.queries"] = (sum(totals) / n, "queries/trial")
    metrics["oracles.queries_per_call"] = (
        sum(totals) / primitive_calls if primitive_calls else 0.0, "queries/call")
    metrics["oracles.zero_mass.count"] = (tracer.zero_mass / n, "count/trial")
    metrics["distcore.QuerySet.members.elems"] = (
        tracer.members_elems / n, "elems/trial")
    samples = {}
    for tester in TESTER_IDS:
        ms = [t.tester_ms / t.factor for t in untraced
              if t.tester == tester and t.tester_ms is not None]
        # A tester the workload does not run reports 0.
        metrics[f"harness.{tester}.trial_ms_p50"] = (
            statistics.median(ms) if ms else 0.0, "ms")
        samples[f"harness.{tester}.trial_ms_p50"] = {
            "percentile": 50.0, "samples": len(ms)}
    metrics["harness.trace_overhead_pct"] = (
        (sum(t.ref_ms for t in traced) / sum(t.ref_ms for t in untraced) - 1.0)
        * 100.0, "%")
    return metrics, samples


def provenance():
    import numpy as np
    import condtest as ct
    try:
        import tomllib
        with open(ROOT / "pyproject.toml", "rb") as f:
            project_version = tomllib.load(f)["project"]["version"]
    except (ImportError, OSError, KeyError):
        project_version = None
    # The checkout need not be a git repository; never search above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "git_commit": commit,
        "condtest_version": ct.__version__,
        "pyproject_version": project_version,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ct, profile, cases, setup_s, kernel = setup(args.workload, args.seed)
    setup_doc = {"setup_s": setup_s / kernel.factor(), "setup_wall_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(setup_doc))
        return 0

    doc = {"workload": args.workload, "seed": args.seed, **setup_doc,
           "provenance": provenance()}
    if args.trace == 0:
        trials, rounds, wall_s = run_rounds(ct, cases, profile, kernel, args.seconds)
        metrics, samples = e2e_metrics(trials)
        fidelity = True
    else:
        import tracing
        untraced, rounds, wall_a = run_rounds(ct, cases, profile, kernel,
                                              args.seconds / 2.0)
        tracer = tracing.Tracer(ct.ZeroMassSet)
        doc["aliases_rebound"] = tracing.install(ct, tracer)
        traced, _, wall_b = run_rounds(ct, cases, profile, kernel, rounds=rounds)
        fidelity = ([t.outcome() for t in untraced]
                    == [t.outcome() for t in traced])
        metrics, samples = layer_metrics(untraced, traced, tracer)
        trials = untraced + traced
        wall_s = wall_a + wall_b
    doc.update(summary(trials, cases))
    doc["rounds"] = rounds
    doc["measured_s"] = wall_s
    doc["trace_fidelity"] = fidelity
    doc["samples"] = samples
    doc["correct"] = bool(doc["failed"] == 0 and fidelity
                          and doc["distinct_trial_seeds"]
                          and doc["correct_share"] >= MIN_CORRECT_SHARE)
    doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
