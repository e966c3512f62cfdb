"""The CSV and JSON reports, pinned to literal text.

One fixed experiment per tester kind (a single-oracle verdict, an
estimate, a known target and two oracles), two trials at seed 5, with
each trial's millis set to 1.25 so the text does not depend on timing.
The CSV is compared byte for byte and the JSON as the exact text
write_json gives, so a field's name, order or formatting cannot change
unnoticed.
"""

import json

import pytest

import condtest
from condtest.harness import ExperimentConfig, run_experiment, write_csv, write_json

MILLIS = 1.25

DESK_ECHO = {
    "name": "desk",
    "overrides": {},
    "table": {
        "compare_c": 3.0, "compare_max_draws": 1e15, "en_sample_c": 2.0,
        "unif_q": 4, "unif_s_c": 1.0, "unif_delta_c": 3.0,
        "known_m_c": 1.0, "known_s_c": 1.0, "heavy_m_c": 1000.0,
        "main_gate_c": 1500.0, "main_l_c": 24.0, "main_recheck_c": 200000.0,
        "main_h_c": 8.0, "eq_t_c": 0.25, "eq_s1_c": 0.5, "eq_s2_c": 0.5,
        "eq_en_sample_cap": 200, "eq_compare_eta_floor": 0.002,
        "eq_compare_delta_floor": 0.0001, "ae_m_c": 1.0, "ae_m_cap": 5e7,
        "ae_m_floor_c": 50.0, "ae_m_min": 2e6, "ae_kappa_c": 1.0,
        "ae_eps_cap": 0.125, "fr_x_c": 1.0, "fr_x_cap": 40, "fr_y_c": 1.0,
        "fr_y_cap": 500, "fr_en_sample_cap": 400, "fr_compare_eta_floor": 0.02,
        "fr_compare_delta_floor": 0.0001, "dist_s_c": 3.0, "icond_t_c": 20.0,
    },
}

UNIFORM_8 = {"kind": "explicit", "weights": [1.0] * 8}
HEADER = "trial,seed,verdict,estimate,samp,cond,pcond,icond,total,millis\r\n"


def ledger(samp, cond, pcond, icond, total):
    return {"samp": samp, "cond": cond, "pcond": pcond, "icond": icond,
            "total": total}


def trial(i, seed, verdict, estimate, led):
    return {"trial": i, "seed": seed, "verdict": verdict, "estimate": estimate,
            "ledger": led, "millis": MILLIS}


# tester: (config, CSV text, aggregate, trials)
CASES = {
    "pcond_uniform": (
        {"tester": "pcond_uniform", "spec": UNIFORM_8, "spec2": None,
         "eps": 0.5, "trials": 2, "seed": 5},
        HEADER
        + "0,5,Accept,,16572334,0,133162570,0,149734904,1.25\r\n"
        + "1,4,Accept,,19067908,0,130666996,0,149734904,1.25\r\n",
        {"kind": "verdict", "trials": 2,
         "mean_queries": {"samp": 17820121.0, "cond": 0.0, "pcond": 131914783.0,
                          "icond": 0.0, "total": 149734904.0},
         "accept_count": 2, "accept_rate": 1.0,
         "wilson_low": 0.34238022750665303, "wilson_high": 1.0},
        [trial(0, 5, "Accept", None, ledger(16572334, 0, 133162570, 0, 149734904)),
         trial(1, 4, "Accept", None, ledger(19067908, 0, 130666996, 0, 149734904))],
    ),
    "dist_uniformity": (
        {"tester": "dist_uniformity",
         "spec": {"kind": "explicit", "weights": [1.0] * 4 + [3.0] * 4},
         "spec2": None, "eps": 0.5, "trials": 2, "seed": 5},
        HEADER
        + "0,5,,0.2491830526541106,440,0,130165584,0,130166024,1.25\r\n"
        + "1,4,,0.1900522008515306,440,0,135511083,0,135511523,1.25\r\n",
        {"kind": "estimate", "trials": 2,
         "mean_queries": {"samp": 440.0, "cond": 0.0, "pcond": 132838333.5,
                          "icond": 0.0, "total": 132838773.5},
         "estimate_mean": 0.2196176267528206,
         "estimate_std": 0.029565425901289993},
        [trial(0, 5, "", 0.2491830526541106, ledger(440, 0, 130165584, 0, 130166024)),
         trial(1, 4, "", 0.1900522008515306, ledger(440, 0, 135511083, 0, 135511523))],
    ),
    "cond_known": (
        {"tester": "cond_known", "spec": UNIFORM_8, "spec2": UNIFORM_8,
         "eps": 0.5, "trials": 2, "seed": 5},
        HEADER
        + "0,5,Reject,,48000,0,0,0,48000,1.25\r\n"
        + "1,4,Reject,,48000,0,0,0,48000,1.25\r\n",
        {"kind": "verdict", "trials": 2,
         "mean_queries": {"samp": 48000.0, "cond": 0.0, "pcond": 0.0,
                          "icond": 0.0, "total": 48000.0},
         "accept_count": 0, "accept_rate": 0.0,
         "wilson_low": 0.0, "wilson_high": 0.6576197724933469},
        [trial(0, 5, "Reject", None, ledger(48000, 0, 0, 0, 48000)),
         trial(1, 4, "Reject", None, ledger(48000, 0, 0, 0, 48000))],
    ),
    "pcond_equality": (
        {"tester": "pcond_equality", "spec": UNIFORM_8, "spec2": UNIFORM_8,
         "eps": 0.5, "trials": 2, "seed": 5},
        HEADER
        + "0,5,Accept,,850,0,2495678892,0,2495679742,1.25\r\n"
        + "1,4,Accept,,850,0,2495678892,0,2495679742,1.25\r\n",
        {"kind": "verdict", "trials": 2,
         "mean_queries": {"samp": 850.0, "cond": 0.0, "pcond": 2495678892.0,
                          "icond": 0.0, "total": 2495679742.0},
         "accept_count": 2, "accept_rate": 1.0,
         "wilson_low": 0.34238022750665303, "wilson_high": 1.0},
        [trial(0, 5, "Accept", None, ledger(850, 0, 2495678892, 0, 2495679742)),
         trial(1, 4, "Accept", None, ledger(850, 0, 2495678892, 0, 2495679742))],
    ),
}


def run_fixed(config):
    res = run_experiment(ExperimentConfig(**config))
    for rec in res.trials:
        rec.millis = MILLIS
    return res


@pytest.mark.parametrize("tester", CASES)
def test_csv_text(tester, tmp_path):
    config, text, _, _ = CASES[tester]
    path = tmp_path / "report.csv"
    write_csv(run_fixed(config), path)
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("tester", CASES)
def test_json_text(tester, tmp_path):
    config, _, aggregate, trials = CASES[tester]
    path = tmp_path / "report.json"
    write_json(run_fixed(config), path)
    doc = {"condtest_version": condtest.__version__, "config": config,
           "profile": DESK_ECHO, "aggregate": aggregate, "trials": trials}
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
