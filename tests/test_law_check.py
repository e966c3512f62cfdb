"""tools/law_check.py compares two trees' testers in law: accept rates
by a Newcombe interval, ledger columns and estimates by a two-sample KS
statistic, every test at the run's level over its number of tests."""

import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import law_check  # noqa: E402


def test_one_tree_on_the_same_seeds_differs_nowhere():
    run = subprocess.run([sys.executable, str(TOOLS / "law_check.py"),
                          "--against", str(TOOLS.parent / "src"), "--trials", "20",
                          "--other-seed", "0", "--case", "dist_uniformity/half_256"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    *rows, summary = run.stdout.splitlines()
    assert [row.split(":")[0] for row in rows] == [
        "dist_uniformity/half_256 eps=0.25", "dist_uniformity/half_256_eps_0.5 eps=0.5"]
    for row in rows:
        assert "accept 0/20 vs 0/20" in row and row.endswith(": ok")
        stats = re.findall(r"(\w+) ([\d.]+)/([\d.]+)", row.split("KS ")[1])
        assert [col for col, _, _ in stats] == [*law_check.COLUMNS, "estimate"]
        assert all(float(d) == 0.0 < float(crit) for _, d, crit in stats)
    assert summary == "2 rows, 12 tests at 0.05 / 12 each: all inside"


def outcomes(accepts, n, shift=0):
    """n trials, the first `accepts` accepting, with samp counts 0..6
    (plus shift) in turn."""
    out = []
    for i in range(n):
        samp = i % 7 + shift
        out.append({"verdict": "Accept" if i < accepts else "Reject", "estimate": None,
                    "ledger": {"samp": samp, "cond": 0, "pcond": 0, "icond": 0,
                               "total": samp}})
    return out


def outside(a, b):
    [row] = law_check.compare_sides({"x": a}, {"x": b})
    return row.outside


def test_accept_rates_apart_are_flagged():
    assert outside(outcomes(100, 200), outcomes(150, 200))
    assert not outside(outcomes(100, 200), outcomes(100, 200))


def test_shifted_ledgers_are_flagged():
    assert outside(outcomes(100, 200), outcomes(100, 200, shift=3))


def test_a_raised_trial_is_flagged():
    raised = outcomes(100, 200)
    raised[-1] = {"error": "EvalFailed: no resolution after 9 rounds"}
    assert outside(outcomes(100, 200), raised)


def test_ks_statistic_is_the_largest_gap():
    assert law_check.ks_statistic([1, 2, 3, 4], [1, 2, 3, 4]) == 0.0
    assert law_check.ks_statistic([1, 1, 2, 2], [2, 2, 3, 3]) == 0.5
    assert law_check.ks_statistic([0], [1]) == 1.0
