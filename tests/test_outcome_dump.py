"""tools/outcome_dump.py writes the same bytes on every run of the same
code, so comparing its output across a change is a seed-for-seed gate;
--against makes that comparison itself."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outcome_dump.py"


def dump(tmp_path, name):
    out = tmp_path / name
    subprocess.run([sys.executable, str(TOOL), "--workload", "set_small_n",
                    "--seed", "11", "--rounds", "1", "--out", str(out)],
                   check=True, timeout=300)
    return out.read_bytes()


def test_two_runs_are_byte_identical(tmp_path):
    first = dump(tmp_path, "a.jsonl")
    assert first == dump(tmp_path, "b.jsonl")
    rows = [json.loads(line) for line in first.decode().splitlines()]
    assert len(rows) == 7  # one round of every set_small_n case
    assert len({r["case"] for r in rows}) == 7
    for r in rows:
        assert "error" not in r
        assert r["verdict"] in ("Accept", "Reject")
        assert r["ledger"]["total"] == sum(
            r["ledger"][c] for c in ("samp", "cond", "pcond", "icond"))


def test_case_keeps_matching_cases_with_their_seeds(tmp_path):
    every = [json.loads(line) for line in dump(tmp_path, "all.jsonl").splitlines()]
    out = tmp_path / "eval.jsonl"
    subprocess.run([sys.executable, str(TOOL), "--workload", "set_small_n",
                    "--seed", "11", "--rounds", "2", "--case", "eval_equality",
                    "--out", str(out)], check=True, timeout=300)
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["case"] for r in rows] == [
        "eval_equality/U_U_256", "eval_equality/U_half_split_256"] * 2
    # Round 0 of each case is its line in the dump of every case.
    assert rows[:2] == [r for r in every if "eval_equality" in r["case"]]
    assert [r["seed"] for r in rows[2:]] == [r["seed"] ^ 1 for r in rows[:2]]


def against(other_src, *extra, workload="set_small_n"):
    return subprocess.run([sys.executable, str(TOOL), "--workload", workload,
                           "--seed", "11", "--rounds", "1", *extra,
                           "--against", str(other_src)],
                          capture_output=True, text=True, timeout=300)


def counting_one_more(tmp_path):
    """A copy of the sources whose ledgers all count one query more."""
    other = tmp_path / "src"
    shutil.copytree(TOOL.parent.parent / "src" / "condtest", other / "condtest",
                    ignore=shutil.ignore_patterns("__pycache__"))
    oracles = other / "condtest" / "oracles.py"
    text = oracles.read_text()
    total = "return self.samp_count + self.cond_count + self.pcond_count + self.icond_count"
    assert total in text
    oracles.write_text(text.replace(total, total + " + 1"))
    return other


def test_against_the_same_sources_passes():
    run = against(TOOL.parent.parent / "src")
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip() == "7 trials identical"


def test_against_changed_sources_names_the_first_difference(tmp_path):
    # Every ledger counts one query more: trial 0 differs.
    run = against(counting_one_more(tmp_path))
    assert run.returncode == 1
    lines = run.stdout.splitlines()
    assert lines[0] == "trial 0 differs:"
    mine, theirs = (json.loads(line.split(": ", 1)[1]) for line in lines[1:3])
    assert theirs["ledger"]["total"] == mine["ledger"]["total"] + 1
    assert {k: v for k, v in mine.items() if k != "ledger"} == {
        k: v for k, v in theirs.items() if k != "ledger"}


# One uniform case of each workload, two of large_n: a few fast trials.
UNIFORM = ("--case", "uniform/U")


def test_all_runs_the_three_workloads_in_turn(tmp_path):
    def dump_of(workload):
        out = tmp_path / f"{workload}.jsonl"
        subprocess.run([sys.executable, str(TOOL), "--workload", workload, "--seed", "11",
                        "--rounds", "1", *UNIFORM, "--out", str(out)],
                       check=True, timeout=300)
        return out.read_text()

    assert dump_of("all") == "".join(
        dump_of(w) for w in ("pair_small_n", "set_small_n", "large_n"))
    run = against(TOOL.parent.parent / "src", *UNIFORM, workload="all")
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines() == [
        "pair_small_n: 1 trials identical", "set_small_n: 1 trials identical",
        "large_n: 2 trials identical"]


def test_all_stops_at_the_first_workload_that_differs(tmp_path):
    run = against(counting_one_more(tmp_path), *UNIFORM, workload="all")
    assert run.returncode == 1
    lines = run.stdout.splitlines()
    assert lines[0] == "pair_small_n: trial 0 differs:"
    assert len(lines) == 3  # set_small_n and large_n did not run
