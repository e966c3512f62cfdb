import json

import pytest
from click.testing import CliRunner

from condtest.cli import main


def write_spec(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def uniform_spec(tmp_path, n=64, name="u.json"):
    return write_spec(tmp_path, name,
                      {"kind": "explicit", "weights": [1.0] * n})


class TestRun:
    def test_basic_run_prints_aggregate(self, tmp_path):
        spec = uniform_spec(tmp_path)
        r = CliRunner().invoke(main, [
            "run", "--tester", "pcond_uniform", "--dist", spec,
            "--eps", "0.5", "--trials", "2", "--seed", "3",
        ])
        assert r.exit_code == 0, r.output
        doc = json.loads(r.output)
        assert doc["trials"] == 2
        assert doc["profile"]["name"] == "desk"
        assert 0.0 <= doc["accept_rate"] <= 1.0

    def test_csv_output_file(self, tmp_path):
        spec = uniform_spec(tmp_path)
        out = tmp_path / "report.csv"
        r = CliRunner().invoke(main, [
            "run", "--tester", "pcond_uniform", "--dist", spec,
            "--eps", "0.5", "--trials", "2", "--out", str(out),
            "--format", "csv",
        ])
        assert r.exit_code == 0, r.output
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,seed,verdict,estimate,samp,cond,pcond,icond,total,millis"
        assert len(lines) == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_output_fails_with_one_line(self, tmp_path, fmt):
        spec = uniform_spec(tmp_path)
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        r = CliRunner().invoke(main, [
            "run", "--tester", "pcond_uniform", "--dist", spec,
            "--eps", "0.5", "--out", str(out), "--format", fmt,
        ])
        assert r.exit_code == 1
        [line] = r.output.strip().splitlines()
        assert line.startswith(f"Error: cannot write '{out}': ")

    def test_json_output_file(self, tmp_path):
        spec = uniform_spec(tmp_path)
        out = tmp_path / "report.json"
        r = CliRunner().invoke(main, [
            "run", "--tester", "dist_uniformity", "--dist", spec,
            "--eps", "0.25", "--trials", "1", "--out", str(out),
        ])
        assert r.exit_code == 0, r.output
        doc = json.loads(out.read_text())
        assert doc["aggregate"]["kind"] == "estimate"
        assert len(doc["trials"]) == 1

    def test_two_spec_tester(self, tmp_path):
        d1 = uniform_spec(tmp_path, name="a.json")
        d2 = uniform_spec(tmp_path, name="b.json")
        r = CliRunner().invoke(main, [
            "run", "--tester", "cond_known", "--dist", d1, "--dist2", d2,
            "--eps", "0.5", "--trials", "1",
        ])
        assert r.exit_code == 0, r.output

    def test_missing_second_spec_fails_cleanly(self, tmp_path):
        spec = uniform_spec(tmp_path)
        r = CliRunner().invoke(main, [
            "run", "--tester", "cond_known", "--dist", spec,
            "--eps", "0.5",
        ])
        assert r.exit_code != 0
        assert "two distribution specs" in r.output

    @pytest.mark.parametrize("eps", ["0", "-0.5", "nan", "inf", "1"])
    def test_bad_eps_fails_with_one_line(self, tmp_path, eps):
        spec = uniform_spec(tmp_path)
        r = CliRunner().invoke(main, [
            "run", "--tester", "pcond_uniform", "--dist", spec, "--eps", eps,
        ])
        assert r.exit_code == 1
        assert r.output.strip().splitlines() == [
            f"Error: eps must lie strictly between 0 and 1, got {float(eps)!r}"]

    def test_non_finite_weight_fails_with_one_line(self, tmp_path):
        spec = tmp_path / "nan.json"
        spec.write_text('{"kind": "explicit", "weights": [1, NaN]}')
        r = CliRunner().invoke(main, [
            "run", "--tester", "pcond_uniform", "--dist", str(spec),
            "--eps", "0.5",
        ])
        assert r.exit_code == 1
        assert len(r.output.strip().splitlines()) == 1
        assert "weights must be finite" in r.output

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_too_few_trials_fail_with_one_line(self, tmp_path, trials):
        spec = uniform_spec(tmp_path)
        r = CliRunner().invoke(main, [
            "run", "--tester", "pcond_uniform", "--dist", spec,
            "--eps", "0.5", "--trials", trials,
        ])
        assert r.exit_code == 1
        assert r.output.strip().splitlines() == [
            f"Error: need at least one trial, got {int(trials)}"]

    def test_domain_mismatch_fails_with_one_line(self, tmp_path):
        d1 = uniform_spec(tmp_path, n=64, name="a.json")
        d2 = uniform_spec(tmp_path, n=32, name="b.json")
        r = CliRunner().invoke(main, [
            "run", "--tester", "cond_known", "--dist", d1, "--dist2", d2,
            "--eps", "0.5",
        ])
        assert r.exit_code == 1
        assert r.output.strip().splitlines() == [
            "Error: the two inputs have domain sizes 64 and 32"]

    @pytest.mark.parametrize("text, message", [
        (None, "'nonsense' is neither a preset nor a readable file"),
        ('{"overrides": {"mystery_c": 1}}', "unknown profile keys: ['mystery_c']"),
        ('{"base": "galactic"}', "unknown profile preset 'galactic'"),
        ("base = desk", "profile file 'nonsense' is not JSON"),
        ('{"overrides": {"unif_q": -1}}',
         "profile key 'unif_q' must be an integer >= 1, got -1"),
        ('{"overrides": {"compare_c": "x"}}',
         "profile key 'compare_c' must be a number, got 'x'"),
    ])
    def test_bad_profile_fails_with_one_line(self, tmp_path, monkeypatch,
                                             text, message):
        spec = uniform_spec(tmp_path)
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / "nonsense").write_text(text)
        r = CliRunner().invoke(main, [
            "run", "--tester", "pcond_uniform", "--dist", spec,
            "--eps", "0.5", "--profile", "nonsense",
        ])
        assert r.exit_code == 1
        [line] = r.output.strip().splitlines()
        assert line.startswith(f"Error: {message}")

    def test_unknown_tester_rejected(self, tmp_path):
        spec = uniform_spec(tmp_path)
        r = CliRunner().invoke(main, [
            "run", "--tester", "nope", "--dist", spec, "--eps", "0.5",
        ])
        assert r.exit_code != 0


class TestSweep:
    def test_sweep_outputs_rows(self):
        r = CliRunner().invoke(main, [
            "sweep", "--tester", "pcond_uniform", "--n-grid", "256,1024",
            "--eps", "0.5", "--trials", "1",
        ])
        assert r.exit_code == 0, r.output
        doc = json.loads(r.output)
        assert [row["n"] for row in doc["rows"]] == [256, 1024]

    def test_bad_eps_fails_with_one_line(self):
        r = CliRunner().invoke(main, [
            "sweep", "--tester", "pcond_uniform", "--n-grid", "256",
            "--eps", "nan",
        ])
        assert r.exit_code == 1
        assert r.output.strip().splitlines() == [
            "Error: eps must lie strictly between 0 and 1, got nan"]

    @pytest.mark.parametrize("grid, small", [("1,16", 1), ("0", 0), ("-4", -4)])
    def test_grid_below_two_fails_with_one_line(self, grid, small):
        r = CliRunner().invoke(main, [
            "sweep", "--tester", "pcond_uniform", f"--n-grid={grid}",
            "--eps", "0.5",
        ])
        assert r.exit_code == 1
        assert r.output.strip().splitlines() == [
            f"Error: sweep domain sizes must be at least 2, got {small}"]

    def test_grid_past_numpy_arrays_fails_with_one_line(self):
        """2^60 weights are more bytes than numpy can index."""
        r = CliRunner().invoke(main, [
            "sweep", "--tester", "pcond_uniform", f"--n-grid={2**60}",
            "--eps", "0.5", "--trials", "1",
        ])
        assert r.exit_code == 1
        assert r.output.strip().splitlines() == [
            f"Error: uniform({2**60}) needs arrays of {2**60} weights, "
            "which do not fit in memory"]

    def test_empty_grid_fails_with_one_line(self):
        r = CliRunner().invoke(main, [
            "sweep", "--tester", "pcond_uniform", "--n-grid", ",",
            "--eps", "0.5",
        ])
        assert r.exit_code == 1
        assert r.output.strip().splitlines() == [
            "Error: a sweep needs at least one domain size"]

    def test_bad_grid(self):
        r = CliRunner().invoke(main, [
            "sweep", "--tester", "pcond_uniform", "--n-grid", "a,b",
            "--eps", "0.5",
        ])
        assert r.exit_code != 0


class TestDistValidate:
    def test_validate_generator_spec(self, tmp_path):
        spec = write_spec(tmp_path, "hs.json", {
            "kind": "generator", "name": "half_split",
            "params": {"n": 64, "eps": 0.25},
        })
        r = CliRunner().invoke(main, ["dist", "validate", spec])
        assert r.exit_code == 0, r.output
        doc = json.loads(r.output)
        assert doc["n"] == 64
        assert doc["total_mass"] == 1.0
        assert abs(doc["tv_to_uniform"] - 0.25) < 1e-12

    def test_validate_bad_spec(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\"kind\": \"generator\", \"name\": \"nope\"}")
        r = CliRunner().invoke(main, ["dist", "validate", str(p)])
        assert r.exit_code != 0

    def test_validate_overflowing_weight_sum_fails_with_one_line(self, tmp_path):
        spec = write_spec(tmp_path, "big.json",
                          {"kind": "explicit", "weights": [1e308, 1e308]})
        r = CliRunner().invoke(main, ["dist", "validate", spec])
        assert r.exit_code == 1
        assert len(r.output.strip().splitlines()) == 1
        assert "bad weights" in r.output

    @pytest.mark.parametrize("weights", [
        {"a": 1},           # an object
        [[1, 2], [3, 4]],   # nested lists
        [True, False],      # booleans
    ])
    def test_validate_weights_not_a_flat_number_list(self, tmp_path, weights):
        spec = write_spec(tmp_path, "w.json", {"kind": "explicit", "weights": weights})
        r = CliRunner().invoke(main, ["dist", "validate", spec])
        assert r.exit_code == 1
        assert r.output.strip().splitlines() == [
            "Error: bad weights: 'weights' must be a flat list of numbers"]

    def test_validate_out_of_range_generator_param(self, tmp_path):
        spec = write_spec(tmp_path, "hs.json", {
            "kind": "generator", "name": "half_split",
            "params": {"n": 64, "eps": 0.7},
        })
        r = CliRunner().invoke(main, ["dist", "validate", spec])
        assert r.exit_code == 1
        assert len(r.output.strip().splitlines()) == 1
        assert "bad generator params" in r.output
