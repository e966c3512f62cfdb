"""tools/outcome_dump.py writes the same bytes on every run of the same
code, so comparing its output across a change is a seed-for-seed gate."""

import json
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
