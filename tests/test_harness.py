import gc
import json
import math
import weakref

import pytest

from condtest import harness
from condtest.distcore import uniform
from condtest.errors import (
    BadEpsilon,
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

    @pytest.mark.parametrize("tester", [
        "pcond_known", "cond_known", "pcond_equality", "eval_equality"])
    def test_refuses_domain_mismatch(self, tester):
        cfg = ExperimentConfig(
            tester=tester,
            spec={"kind": "explicit", "weights": [1.0] * 64},
            spec2={"kind": "explicit", "weights": [1.0] * 32},
            eps=0.5,
        )
        with pytest.raises(DomainMismatch, match="64 but spec2 has 32"):
            run_experiment(cfg)

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


class TestRunTrial:
    def test_unknown_tester(self):
        with pytest.raises(UnknownTester, match="'nope'"):
            harness.run_trial("nope", uniform(8), None, 0.5, 0)

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, 1.0])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(BadEpsilon):
            harness.run_trial("pcond_uniform", uniform(8), None, eps, 0)


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

    def test_json_round_trip(self, tmp_path):
        res = run_experiment(small_cfg(trials=2))
        path = tmp_path / "out.json"
        write_json(res, path)
        doc = read_json_report(path)
        assert doc == json.loads(json.dumps(result_document(res)))
        assert doc["aggregate"]["trials"] == 2


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

    def test_aggregate_helper(self):
        res = run_experiment(small_cfg(trials=3))
        agg = aggregate(res.trials, "verdict")
        assert agg.trials == 3
        assert agg.mean_queries["total"] > 0
