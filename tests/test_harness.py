import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

import condtest
from condtest import harness, identity
from condtest.adversarial import gen_half_split, gen_staircase
from condtest.distcore import uniform
from condtest.errors import (
    BadEpsilon,
    BadProfile,
    BadReport,
    BadSeed,
    BadSweepGrid,
    BadTrialCount,
    DomainMismatch,
    IncompatibleOracleModel,
    UnknownTester,
)
from condtest.harness import (
    CSV_HEADER,
    ExperimentConfig,
    TESTERS,
    TrialRecord,
    aggregate,
    passes_guarantee,
    read_csv_trials,
    read_json_report,
    result_document,
    run_experiment,
    scaling_sweep,
    wilson_interval,
    write_csv,
    write_json,
)
from condtest.cli import main
from condtest.identity import KnownTarget
from condtest.oracles import OracleHandle, QueryLedger
from condtest.profiles import DESK


def small_cfg(**kw):
    base = dict(
        tester="pcond_uniform",
        spec={"kind": "explicit", "weights": [1.0] * 64},
        eps=0.5,
        trials=3,
        seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestWilson:
    def test_reference_values(self):
        lo, hi = wilson_interval(8, 10)
        assert lo == pytest.approx(0.4902, abs=1e-3)
        assert hi == pytest.approx(0.9433, abs=1e-3)
        assert wilson_interval(0, 10)[0] == 0.0
        assert wilson_interval(10, 10)[1] == pytest.approx(1.0)

    def test_interval_contains_point_rate(self):
        for k, n in ((0, 5), (3, 7), (200, 200), (130, 200)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi

    def test_guarantee_rule(self):
        assert passes_guarantee(200, 200, 2 / 3)
        assert passes_guarantee(140, 200, 2 / 3)
        assert not passes_guarantee(100, 200, 2 / 3)


class TestConfig:
    def test_requires_second_spec_for_pair_testers(self):
        with pytest.raises(IncompatibleOracleModel):
            ExperimentConfig(
                tester="pcond_equality",
                spec={"kind": "explicit", "weights": [1, 1]},
                eps=0.5,
            )

    def test_rejects_stray_second_spec(self):
        with pytest.raises(IncompatibleOracleModel):
            ExperimentConfig(
                tester="pcond_uniform",
                spec={"kind": "explicit", "weights": [1, 1]},
                spec2={"kind": "explicit", "weights": [1, 1]},
                eps=0.5,
            )

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf, 1.0, 1.5])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(BadEpsilon):
            small_cfg(eps=eps)

    def test_unknown_tester(self):
        with pytest.raises(UnknownTester):
            ExperimentConfig(tester="psychic", spec={}, eps=0.5)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_too_few_trials(self, trials):
        with pytest.raises(BadTrialCount):
            small_cfg(trials=trials)

    def test_no_output_format_field(self):
        # The report format is chosen by the writer, not the config.
        with pytest.raises(TypeError):
            small_cfg(out_format="json")

    def test_registry_models(self):
        assert TESTERS["icond_uniform"].model == "icond"
        assert TESTERS["dist_uniformity"].kind == "estimate"
        assert TESTERS["cond_known"].second == "target"


@pytest.mark.parametrize("name, value, error", [
    ("eps", "0.5", BadEpsilon),
    ("eps", None, BadEpsilon),
    ("eps", True, BadEpsilon),
    ("trials", 2.5, BadTrialCount),
    ("trials", "3", BadTrialCount),
    ("trials", True, BadTrialCount),
    ("seed", 1.5, BadSeed),
    ("seed", "7", BadSeed),
    ("seed", True, BadSeed),
    ("seed", None, BadSeed),
])
def test_bad_input_refused_before_any_trial(name, value, error, monkeypatch):
    """A value of the wrong type raises its CondtestError, from
    ExperimentConfig and from run_trial, before any oracle is opened."""
    opened = []
    monkeypatch.setattr(harness, "OracleHandle", lambda *a, **kw: opened.append(a))
    with pytest.raises(error):
        small_cfg(**{name: value})
    if name != "trials":
        args = dict(tester="pcond_uniform", d1=uniform(8), aux=None, eps=0.5, seed=0)
        args[name] = value
        with pytest.raises(error):
            harness.run_trial(**args)
    assert opened == []


def test_numpy_integers_are_taken_as_ints():
    cfg = small_cfg(seed=np.int64(7), trials=np.int32(2))
    assert (type(cfg.seed), type(cfg.trials)) == (int, int)
    res = run_experiment(cfg)
    assert [r.seed for r in res.trials] == [7, 6]
    json.dumps(result_document(res))


def test_mean_queries_match_np_mean():
    """aggregate's integer means equal np.mean's while a column sums
    below 2^53."""
    rng = np.random.default_rng(5)
    for trials, high in ((1, 10), (7, 2**30), (200, 2**44)):
        cols = rng.integers(0, high, size=(4, trials)).tolist()
        records = [TrialRecord(i, 0, "Accept", None, QueryLedger(*led), 0.0)
                   for i, led in enumerate(zip(*cols))]
        got = aggregate(records, "verdict").mean_queries
        for name, col in zip(("samp", "cond", "pcond", "icond"), cols):
            assert got[name] == float(np.mean(col))
        assert got["total"] == float(np.mean([r.ledger.total for r in records]))


class TestRunExperiment:
    def test_reproducible(self):
        def strip_timing(doc):
            for t in doc["trials"]:
                t.pop("millis")
            return doc

        a = strip_timing(result_document(run_experiment(small_cfg())))
        b = strip_timing(result_document(run_experiment(small_cfg())))
        assert a == b

    def test_seeds_are_xor_of_base(self):
        res = run_experiment(small_cfg(trials=4, seed=100))
        assert [r.seed for r in res.trials] == [100 ^ i for i in range(4)]

    def test_single_trial_rate_is_binary(self):
        res = run_experiment(small_cfg(trials=1))
        assert res.aggregate.accept_rate in (0.0, 1.0)

    def test_estimator_aggregation(self):
        cfg = small_cfg(tester="dist_uniformity", eps=0.25, trials=3)
        res = run_experiment(cfg)
        agg = res.aggregate
        assert agg.kind == "estimate"
        assert agg.estimate_mean is not None and agg.estimate_std is not None
        assert all(r.verdict == "" for r in res.trials)

    def test_profile_echoed(self):
        res = run_experiment(small_cfg())
        assert res.profile_echo["name"] == "desk"
        assert "compare_c" in res.profile_echo["table"]

    def test_rates_match_trials(self):
        res = run_experiment(small_cfg(trials=5))
        k = sum(r.verdict == "Accept" for r in res.trials)
        assert res.aggregate.accept_count == k
        assert res.aggregate.accept_rate == k / 5
        lo, hi = res.aggregate.wilson_low, res.aggregate.wilson_high
        assert lo <= k / 5 <= hi

    def test_icond_trials_have_no_pair_queries(self):
        cfg = small_cfg(tester="icond_uniform", trials=2)
        res = run_experiment(cfg)
        for r in res.trials:
            assert r.ledger.pcond_count == 0
            assert r.ledger.cond_count == 0

    def test_two_spec_tester_runs(self):
        cfg = ExperimentConfig(
            tester="cond_known",
            spec={"kind": "explicit", "weights": [1.0] * 32},
            spec2={"kind": "explicit", "weights": [1.0] * 32},
            eps=0.5,
            trials=2,
            seed=1,
        )
        res = run_experiment(cfg)
        assert all(r.verdict in ("Accept", "Reject") for r in res.trials)

    def test_target_freed_after_experiment(self, monkeypatch):
        refs = []

        class Spy(harness.KnownTarget):
            def __init__(self, dstar):
                super().__init__(dstar)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(harness, "KnownTarget", Spy)
        cfg = ExperimentConfig(
            tester="cond_known",
            spec={"kind": "explicit", "weights": [1.0] * 256},
            spec2={"kind": "explicit", "weights": [1.0] * 256},
            eps=0.5,
        )
        res = run_experiment(cfg)
        assert len(refs) == 1
        gc.collect()
        assert refs[0]() is None
        assert res.trials[0].verdict in ("Accept", "Reject")


def outcomes(res):
    return [(r.seed, r.verdict, r.estimate, r.ledger.as_dict()) for r in res.trials]


class TestTargetTables:
    """A target's tables are built once per target Distribution and die
    with it."""

    def test_built_once_per_target_distribution(self, monkeypatch):
        calls = []
        raw = identity.WitnessChain.build.__func__

        def build(cls, prefix, wj, last):
            calls.append(wj)
            return raw(cls, prefix, wj, last)

        monkeypatch.setattr(identity.WitnessChain, "build", classmethod(build))
        d, target = uniform(1024), uniform(1024)
        for eps in (0.5, 0.4, 0.45):
            run_experiment(ExperimentConfig(tester="cond_known", spec=d,
                                            spec2=target, eps=eps, seed=3))
        # Every position of a uniform target has the same weight, so one
        # chain table serves all three eps.
        assert len(calls) == 1

    @pytest.mark.parametrize("tester", ["cond_known", "pcond_known"])
    @pytest.mark.parametrize("make_d, make_t", [
        (lambda: uniform(1024), lambda: uniform(1024)),
        (lambda: gen_half_split(1024, 0.5), lambda: uniform(1024)),
        (lambda: gen_staircase(2, 4, ["up_down"] * 4), lambda: gen_staircase(2, 4)),
        (lambda: gen_staircase(2, 4), lambda: gen_staircase(2, 4)),
    ])
    def test_shared_tables_give_fresh_target_outcomes(self, tester, make_d, make_t):
        d = make_d()
        eps_grid = (0.5, 0.35, 0.45)

        def cfg(target, eps):
            return ExperimentConfig(tester=tester, spec=d, spec2=target, eps=eps,
                                    seed=11)

        fresh = {eps: outcomes(run_experiment(cfg(make_t(), eps))) for eps in eps_grid}
        for order in itertools.permutations(eps_grid):
            shared = make_t()
            for eps in order:
                assert outcomes(run_experiment(cfg(shared, eps))) == fresh[eps]

    def test_target_from_spec_freed_without_gc(self, monkeypatch):
        """No reference cycle keeps a target or its tables alive: with the
        collector off, reference counting frees them when the experiment
        returns."""
        refs = []

        def recording(method):
            def recorded(self, key):
                table = method(self, key)
                refs.extend(weakref.ref(obj) for obj in (self, self.sorted_order, table))
                return table
            return recorded

        for name in ("witness_chain", "buckets"):
            monkeypatch.setattr(identity.KnownTarget, name,
                                recording(getattr(identity.KnownTarget, name)))
        spec = {"kind": "explicit", "weights": [1.0] * 256}
        gc.disable()
        try:
            for tester in ("cond_known", "pcond_known"):
                run_experiment(ExperimentConfig(tester=tester, spec=spec, spec2=spec,
                                                eps=0.5, trials=2))
            assert refs
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()


def _refuse_mismatch(entry, tester, tmp_path, n1, n2):
    """Run tester on an n1-point input and an n2-point second input
    through entry; the refusal it raises, or the CLI's output lines."""
    spec = harness.TESTERS[tester]
    docs = [{"kind": "explicit", "weights": [1.0] * n} for n in (n1, n2)]
    d1, d2 = uniform(n1), uniform(n2)
    if entry == "cli":
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, doc in zip(paths, docs):
            path.write_text(json.dumps(doc))
        r = CliRunner().invoke(main, ["run", "--tester", tester, "--dist", str(paths[0]),
                                      "--dist2", str(paths[1]), "--eps", "0.5"])
        assert r.exit_code == 1
        return r.output.strip().splitlines()
    with pytest.raises(DomainMismatch) as err:
        if entry == "run_experiment":
            run_experiment(ExperimentConfig(tester=tester, spec=docs[0], spec2=docs[1],
                                            eps=0.5))
        elif entry == "run_trial":
            aux = KnownTarget(d2) if spec.second == "target" else d2
            harness.run_trial(tester, d1, aux, 0.5, 0)
        else:  # harness.OracleHandle: the recording class the test installs
            h1 = harness.OracleHandle(d1, model=spec.model, seed=0,
                                      discipline=spec.discipline)
            aux = (KnownTarget(d2) if spec.second == "target" else harness.OracleHandle(
                d2, model=spec.model, seed=1, discipline=spec.discipline))
            spec.fn(h1, aux, 0.5)
    return [f"Error: {err.value}"]


@pytest.mark.parametrize("n1, n2", [(64, 32), (32, 64)])
@pytest.mark.parametrize("tester", [
    "pcond_known", "cond_known", "pcond_equality", "eval_equality"])
@pytest.mark.parametrize("entry", ["cli", "run_experiment", "run_trial", "direct"])
def test_domain_mismatch_refused_before_any_draw(entry, tester, n1, n2, tmp_path,
                                                 monkeypatch):
    """Every entry point leaves the domain check to the tester, which
    refuses with check_same_domain's one message before any handle
    draws or is charged."""
    made = []

    class Recorded(OracleHandle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.start = self.rng.bit_generator.state
            made.append(self)

    monkeypatch.setattr(harness, "OracleHandle", Recorded)
    assert _refuse_mismatch(entry, tester, tmp_path, n1, n2) == [
        f"Error: the two inputs have domain sizes {n1} and {n2}"]
    assert made
    for h in made:
        assert h.ledger.total == 0 and h.rng.bit_generator.state == h.start


class TestRunTrial:
    def test_unknown_tester(self):
        with pytest.raises(UnknownTester, match="'nope'"):
            harness.run_trial("nope", uniform(8), None, 0.5, 0)

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, 1.0])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(BadEpsilon):
            harness.run_trial("pcond_uniform", uniform(8), None, eps, 0)

    @pytest.mark.parametrize("tester, aux", [
        ("cond_known", uniform(8)),            # a Distribution, not a target
        ("pcond_known", uniform(8)),
        ("cond_known", None),
        ("eval_equality", None),               # the second oracle missing
        ("pcond_equality", KnownTarget(uniform(8))),
        ("pcond_uniform", uniform(8)),         # a single-spec tester
        ("dist_uniformity", KnownTarget(uniform(8))),
    ])
    def test_rejects_aux_of_the_wrong_kind(self, tester, aux):
        with pytest.raises(IncompatibleOracleModel, match=repr(tester)):
            harness.run_trial(tester, uniform(8), aux, 0.5, 0)

    def test_rejects_a_first_input_that_is_no_distribution(self):
        with pytest.raises(IncompatibleOracleModel):
            harness.run_trial("pcond_uniform", [0.5, 0.5], None, 0.5, 0)

    @pytest.mark.parametrize("tester, aux", [
        ("cond_known", KnownTarget(uniform(8))),
        ("eval_equality", uniform(8)),
        ("icond_uniform", None),
    ])
    def test_accepts_aux_of_the_right_kind(self, tester, aux):
        rec = harness.run_trial(tester, uniform(8), aux, 0.5, 0)
        assert rec.verdict in ("Accept", "Reject")

    def test_takes_every_profile_form(self):
        recs = [harness.run_trial("pcond_uniform", uniform(64), None, 0.5, 0, profile)
                for profile in ("desk", {}, DESK)]
        assert len({(r.verdict, r.ledger.counts()) for r in recs}) == 1

    def test_rejects_an_unknown_profile(self):
        with pytest.raises(BadProfile):
            harness.run_trial("pcond_uniform", uniform(64), None, 0.5, 0, "nonsense")


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        res = run_experiment(small_cfg(trials=4))
        path = tmp_path / "out.csv"
        write_csv(res, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_HEADER)
        back = read_csv_trials(path)
        assert len(back) == 4
        for orig, rec in zip(res.trials, back):
            assert rec.seed == orig.seed
            assert rec.verdict == orig.verdict
            assert rec.ledger.as_dict() == orig.ledger.as_dict()

    def test_csv_estimates_round_trip(self, tmp_path):
        res = run_experiment(small_cfg(tester="dist_uniformity",
                                       eps=0.25, trials=2))
        path = tmp_path / "out.csv"
        write_csv(res, path)
        back = read_csv_trials(path)
        for orig, rec in zip(res.trials, back):
            assert rec.estimate == orig.estimate  # repr round-trips floats

    GOOD_ROW = "0,11,Accept,,5,0,7,0,12,1.5"

    def read_back(self, tmp_path, text):
        path = tmp_path / "report.csv"
        path.write_text(text)
        return read_csv_trials(path)

    def test_csv_good_row_reads_back(self, tmp_path):
        header = ",".join(CSV_HEADER)
        (rec,) = self.read_back(tmp_path, f"{header}\n{self.GOOD_ROW}\n")
        assert (rec.trial, rec.seed, rec.verdict, rec.estimate) == (0, 11, "Accept", None)
        assert rec.ledger.as_dict()["total"] == 12

    def test_csv_empty_file_refused(self, tmp_path):
        with pytest.raises(BadReport):
            self.read_back(tmp_path, "")

    def test_csv_wrong_header_refused(self, tmp_path):
        header = ",".join(CSV_HEADER[:-1] + ["ms"])
        with pytest.raises(BadReport):
            self.read_back(tmp_path, f"{header}\n{self.GOOD_ROW}\n")
        # Callers that catch ValueError still catch it.
        assert issubclass(BadReport, ValueError)

    def test_csv_short_row_refused(self, tmp_path):
        header = ",".join(CSV_HEADER)
        with pytest.raises(BadReport):
            self.read_back(tmp_path, f"{header}\n{self.GOOD_ROW}\n0,11,Accept\n")

    @pytest.mark.parametrize("field, value", [(0, "first"), (3, "high"),
                                              (5, "1.5"), (9, "")])
    def test_csv_non_numeric_field_refused(self, tmp_path, field, value):
        row = self.GOOD_ROW.split(",")
        row[field] = value
        header = ",".join(CSV_HEADER)
        with pytest.raises(BadReport):
            self.read_back(tmp_path, f"{header}\n{','.join(row)}\n")

    def test_json_round_trip(self, tmp_path):
        res = run_experiment(small_cfg(trials=2))
        path = tmp_path / "out.json"
        write_json(res, path)
        doc = read_json_report(path)
        assert doc == json.loads(json.dumps(result_document(res)))
        assert doc["aggregate"]["trials"] == 2

    def test_json_records_the_package_version(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(run_experiment(small_cfg(trials=1)), path)
        assert read_json_report(path)["condtest_version"] == condtest.__version__

    # Empty, cut short, not UTF-8, and JSON that is not an object.
    @pytest.mark.parametrize("data", [b"", b"{\"config\": ", b"\xff\xfe", b"[1]\n"])
    def test_json_bad_file_refused(self, tmp_path, data):
        path = tmp_path / "report.json"
        path.write_bytes(data)
        with pytest.raises(BadReport):
            read_json_report(path)


class TestScalingSweep:
    def test_rows_in_order_and_exponent(self):
        sw = scaling_sweep("icond_uniform", [1024, 256], 0.5, trials=2, seed=1)
        assert [n for n, _ in sw.rows] == [256, 1024]
        assert all(q > 0 for _, q in sw.rows)
        assert isinstance(sw.exponent, float)

    def test_flat_tester_exponent_near_zero(self):
        sw = scaling_sweep("pcond_uniform", [256, 1024, 4096], 0.5,
                           trials=1, seed=0)
        qs = {q for _, q in sw.rows}
        assert len(qs) == 1  # exact N-independence
        assert abs(sw.exponent) < 1e-9

    @pytest.mark.parametrize("eps", [0.0, math.nan, 1.0])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(BadEpsilon):
            scaling_sweep("pcond_uniform", [], eps, trials=1)

    def test_unknown_tester(self):
        with pytest.raises(UnknownTester):
            scaling_sweep("psychic", [64], 0.5, 1)

    @pytest.mark.parametrize("grid", [[1, 16], [16, 0], [-4]])
    def test_rejects_n_below_two_before_any_trial(self, grid, monkeypatch):
        def no_trials(cfg):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_experiment", no_trials)
        with pytest.raises(BadSweepGrid):
            scaling_sweep("pcond_uniform", grid, 0.5, trials=1)

    @pytest.mark.parametrize("grid", [[], [1024.0], ["8"], [True, 16],
                                      [np.float64(64)]])
    def test_rejects_empty_or_non_integer_grid_before_any_trial(self, grid,
                                                                monkeypatch):
        def no_trials(cfg):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_experiment", no_trials)
        with pytest.raises(BadSweepGrid):
            scaling_sweep("pcond_uniform", grid, 0.5, trials=1)

    def test_numpy_integer_sizes_are_taken_as_ints(self):
        sw = scaling_sweep("pcond_uniform", [np.int64(256)], 0.5, trials=1)
        assert [type(n) for n, _ in sw.rows] == [int]
        json.dumps(sw.as_dict())

    def test_aggregate_helper(self):
        res = run_experiment(small_cfg(trials=3))
        agg = aggregate(res.trials, "verdict")
        assert agg.trials == 3
        assert agg.mean_queries["total"] > 0
