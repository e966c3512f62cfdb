"""Monte Carlo experiment runner.

Runs any registered tester for T independently seeded trials against
one or two distribution specs, collects verdicts / estimates and query
ledgers, and aggregates them with Wilson 95% intervals. Reports
round-trip through CSV and JSON.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .distance import estimate_distance_to_uniformity
from .distcore import Distribution, load_spec, uniform
from .equality import eval_test_equality, pcond_test_equality
from ._version import __version__
from .errors import (
    BadReport,
    BadSeed,
    BadSweepGrid,
    BadTrialCount,
    IncompatibleOracleModel,
    UnknownTester,
    as_integer,
    check_eps,
)
from .identity import KnownTarget, cond_test_known, pcond_test_known
from .interval import icond_test_uniform
from .oracles import COND, ICOND, PCOND, PERMISSIVE, STRICT, OracleHandle, QueryLedger
from .profiles import DESK, resolve_profile
from .uniformity import pcond_test_uniform

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_SECOND_STREAM = 0x9E3779B97F4A7C15  # offset for the second oracle's seed


@dataclass(frozen=True)
class TesterSpec:
    tester_id: str
    fn: object
    model: str
    discipline: str
    second: str  # "none" | "target" | "oracle"
    kind: str    # "verdict" | "estimate"


TESTERS = {
    t.tester_id: t
    for t in [
        TesterSpec("pcond_uniform", pcond_test_uniform, PCOND, PERMISSIVE,
                   "none", "verdict"),
        TesterSpec("icond_uniform", icond_test_uniform, ICOND, STRICT,
                   "none", "verdict"),
        TesterSpec("pcond_known", pcond_test_known, PCOND, STRICT,
                   "target", "verdict"),
        TesterSpec("cond_known", cond_test_known, COND, STRICT,
                   "target", "verdict"),
        TesterSpec("pcond_equality", pcond_test_equality, PCOND, PERMISSIVE,
                   "oracle", "verdict"),
        TesterSpec("eval_equality", eval_test_equality, COND, STRICT,
                   "oracle", "verdict"),
        TesterSpec("dist_uniformity", estimate_distance_to_uniformity, PCOND,
                   STRICT, "none", "estimate"),
    ]
}


def tester_spec(tester: str) -> TesterSpec:
    """The registry entry of a tester; UnknownTester if there is none."""
    try:
        return TESTERS[tester]
    except KeyError:
        raise UnknownTester(f"unknown tester {tester!r}") from None


@dataclass
class ExperimentConfig:
    tester: str
    spec: object            # Distribution, spec dict, JSON string, or path
    spec2: object = None    # target / second oracle for two-spec testers
    eps: float = 0.5
    trials: int = 1
    seed: int = 0
    profile: object = "desk"

    def __post_init__(self):
        needs_two = tester_spec(self.tester).second != "none"
        check_eps(self.eps)
        self.trials = as_integer(self.trials, "trials", BadTrialCount)
        self.seed = as_integer(self.seed, "seed", BadSeed)
        if self.trials < 1:
            raise BadTrialCount(f"need at least one trial, got {self.trials!r}")
        if needs_two and self.spec2 is None:
            raise IncompatibleOracleModel(
                f"tester {self.tester!r} needs two distribution specs"
            )
        if not needs_two and self.spec2 is not None:
            raise IncompatibleOracleModel(
                f"tester {self.tester!r} takes a single distribution spec"
            )


@dataclass
class TrialRecord:
    trial: int
    seed: int
    verdict: str          # "" for estimators
    estimate: float       # None for verdict testers
    ledger: QueryLedger
    millis: float

    def as_dict(self):
        """The trial's entry in the JSON report."""
        return {"trial": self.trial, "seed": self.seed, "verdict": self.verdict,
                "estimate": self.estimate, "ledger": self.ledger.as_dict(),
                "millis": self.millis}

    def as_row(self):
        """The trial's CSV row, in CSV_HEADER's order (csv writes None as "")."""
        led = self.ledger
        return [self.trial, self.seed, self.verdict, self.estimate,
                *led.counts(), led.total, round(self.millis, 3)]


# The trial's fields, the ledger's spread into its columns and total.
CSV_HEADER = [col for f in fields(TrialRecord) for col in (
    (*QueryLedger.COLUMNS, "total") if f.name == "ledger" else (f.name,))]


def wilson_interval(k: int, n: int, z: float = 1.959963984540054):
    """Wilson 95% score interval for k successes out of n."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    spread = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(center - spread, 0.0), min(center + spread, 1.0)


def passes_guarantee(k: int, n: int, p: float) -> bool:
    """Decision rule for a probabilistic contract 'success rate >= p':
    pass when the Wilson 95% lower bound clears p - 0.05."""
    return wilson_interval(k, n)[0] >= p - 0.05


@dataclass
class AggregateReport:
    kind: str
    trials: int
    accept_count: int = 0
    accept_rate: float = None
    wilson_low: float = None
    wilson_high: float = None
    estimate_mean: float = None
    estimate_std: float = None
    mean_queries: dict = field(default_factory=dict)

    def as_dict(self):
        out = {"kind": self.kind, "trials": self.trials,
               "mean_queries": dict(self.mean_queries)}
        if self.kind == "verdict":
            out.update(
                accept_count=self.accept_count,
                accept_rate=self.accept_rate,
                wilson_low=self.wilson_low,
                wilson_high=self.wilson_high,
            )
        else:
            out.update(
                estimate_mean=self.estimate_mean,
                estimate_std=self.estimate_std,
            )
        return out


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    profile_echo: dict
    trials: list
    aggregate: AggregateReport


def _resolve_dist(spec) -> Distribution:
    if isinstance(spec, Distribution):
        return spec
    return load_spec(spec)


# What run_trial takes as aux, by TesterSpec.second.
_AUX = {
    "none": (type(None), "no second input"),
    "target": (KnownTarget, "a KnownTarget"),
    "oracle": (Distribution, "a second Distribution"),
}


def run_trial(tester: str, d1: Distribution, aux, eps: float, seed: int,
              profile=DESK) -> TrialRecord:
    """One seeded run; aux is None, a KnownTarget, or the second
    Distribution depending on the tester. Any other aux raises
    IncompatibleOracleModel, and one of another domain size the tester's
    DomainMismatch. profile takes every form resolve_profile does."""
    spec = tester_spec(tester)
    profile = resolve_profile(profile)
    check_eps(eps)
    seed = as_integer(seed, "seed", BadSeed) & _SEED_MASK
    aux_type, aux_name = _AUX[spec.second]
    if not isinstance(d1, Distribution) or not isinstance(aux, aux_type):
        raise IncompatibleOracleModel(
            f"tester {tester!r} takes a Distribution and {aux_name}, "
            f"not {type(d1).__name__} and {type(aux).__name__}")
    h = OracleHandle(d1, model=spec.model, seed=seed, discipline=spec.discipline)
    t0 = time.perf_counter()
    if spec.second == "oracle":
        aux = OracleHandle(aux, model=spec.model,
                           seed=(seed ^ _SECOND_STREAM) & _SEED_MASK,
                           discipline=spec.discipline)
    inputs = [h] if aux is None else [h, aux]
    out = spec.fn(*inputs, eps, profile)
    ledger = h.ledger + aux.ledger if spec.second == "oracle" else h.ledger.copy()
    millis = (time.perf_counter() - t0) * 1000.0
    if spec.kind == "estimate":
        return TrialRecord(0, seed, "", float(out), ledger, millis)
    return TrialRecord(0, seed, out, None, ledger, millis)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    spec = TESTERS[cfg.tester]
    profile = resolve_profile(cfg.profile)
    d1 = _resolve_dist(cfg.spec)
    aux = None
    if spec.second != "none":
        aux = _resolve_dist(cfg.spec2)
        if spec.second == "target":
            aux = KnownTarget(aux)
    records = []
    for i in range(cfg.trials):
        rec = run_trial(cfg.tester, d1, aux, cfg.eps,
                        (cfg.seed ^ i) & _SEED_MASK, profile)
        rec.trial = i
        records.append(rec)
    return ExperimentResult(cfg, profile.echo(), records,
                            aggregate(records, spec.kind))


def aggregate(records, kind) -> AggregateReport:
    n = len(records)
    # Exact integer sums, divided once: np.mean's value while a column
    # sums below 2^53, and without its per-call cost.
    summed = sum((r.ledger for r in records), QueryLedger())
    mean_q = {col: count / n for col, count in summed.as_dict().items()}
    rep = AggregateReport(kind=kind, trials=n, mean_queries=mean_q)
    if kind == "verdict":
        k = sum(r.verdict == "Accept" for r in records)
        rep.accept_count = k
        rep.accept_rate = k / n
        rep.wilson_low, rep.wilson_high = wilson_interval(k, n)
    else:
        vals = [r.estimate for r in records]
        rep.estimate_mean = float(np.mean(vals))
        rep.estimate_std = float(np.std(vals))
    return rep


# Scaling sweeps -----------------------------------------------------


@dataclass
class SweepResult:
    tester: str
    rows: list  # (n, mean total queries) in n order
    exponent: float  # fitted growth exponent of queries vs log2(n)

    def as_dict(self):
        return {"tester": self.tester, "exponent": self.exponent,
                "rows": [{"n": n, "mean_queries": q} for n, q in self.rows]}


def scaling_sweep(tester: str, n_grid, eps: float, trials: int, seed: int = 0,
                  profile="desk") -> SweepResult:
    """Mean query totals on uniform instances across a domain-size grid,
    with the least-squares exponent of queries against log2(n)."""
    check_eps(eps)
    spec = tester_spec(tester)
    n_grid = [as_integer(n, "a sweep domain size", BadSweepGrid) for n in n_grid]
    if not n_grid:
        raise BadSweepGrid("a sweep needs at least one domain size")
    if min(n_grid) < 2:
        raise BadSweepGrid(f"sweep domain sizes must be at least 2, got {min(n_grid)}")
    rows = []
    for n in sorted(n_grid):
        d = uniform(n)
        spec2 = d if spec.second != "none" else None
        cfg = ExperimentConfig(tester=tester, spec=d, spec2=spec2, eps=eps,
                               trials=trials, seed=seed, profile=profile)
        res = run_experiment(cfg)
        rows.append((n, res.aggregate.mean_queries["total"]))
    xs = np.log([math.log2(n) for n, _ in rows])
    ys = np.log([max(q, 1.0) for _, q in rows])
    if len(rows) > 1 and not np.allclose(xs, xs[0]):
        exponent = float(np.polyfit(xs, ys, 1)[0])
    else:
        exponent = 0.0
    return SweepResult(tester, rows, exponent)


# Serialization ------------------------------------------------------


def write_csv(result: ExperimentResult, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for rec in result.trials:
            w.writerow(rec.as_row())


def read_csv_trials(path):
    """Trial rows back from CSV, as TrialRecords; BadReport on a bad file."""
    out = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header != CSV_HEADER:
            raise BadReport(f"unexpected CSV header {header}")
        for row in r:
            if len(row) != len(CSV_HEADER):
                raise BadReport(f"line {r.line_num} has {len(row)} fields")
            f = dict(zip(CSV_HEADER, row))
            try:
                rec = TrialRecord(
                    int(f["trial"]), int(f["seed"]), f["verdict"],
                    None if f["estimate"] == "" else float(f["estimate"]),
                    QueryLedger(*(int(f[col]) for col in QueryLedger.COLUMNS)),
                    float(f["millis"]))
            except ValueError as err:
                raise BadReport(f"line {r.line_num}: {err}") from None
            out.append(rec)
    return out


def result_document(result: ExperimentResult) -> dict:
    cfg = result.config
    return {
        "condtest_version": __version__,
        "config": {
            "tester": cfg.tester,
            "spec": cfg.spec if isinstance(cfg.spec, (dict, str)) else "inline",
            "spec2": cfg.spec2 if isinstance(cfg.spec2, (dict, str)) else (
                None if cfg.spec2 is None else "inline"),
            "eps": cfg.eps,
            "trials": cfg.trials,
            "seed": cfg.seed,
        },
        "profile": result.profile_echo,
        "aggregate": result.aggregate.as_dict(),
        "trials": [r.as_dict() for r in result.trials],
    }


def write_json(result: ExperimentResult, path):
    with open(path, "w") as f:
        json.dump(result_document(result), f, indent=2)
        f.write("\n")


def read_json_report(path) -> dict:
    """A JSON report back as a dict; BadReport on a bad file."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise BadReport(f"not a JSON report: {err}") from None
    if not isinstance(doc, dict):
        raise BadReport(f"a JSON report is an object, not {type(doc).__name__}")
    return doc
