"""tools/kernel_cost.py prints one JSON line of per-call costs, for one
tree or, with --against, for two. Timings are not checked: a run this
short measures nothing."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "kernel_cost.py"
SRC = TOOL.parent.parent / "src"
NAMES = {
    "compare_points", "draw_subset_count_pair", "draw_pair_counts_1",
    "draw_pair_counts_64", "draw_interval_counts_1", "draw_union_counts_points",
    "draw_union_counts_wide", "interval_labels", "classify",
}


def run(*args):
    out = subprocess.run([sys.executable, str(TOOL), "--repeat", "1", "--number", "2",
                          *args], check=True, capture_output=True, text=True,
                         timeout=300).stdout
    lines = out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_one_tree():
    doc = run()
    assert set(doc["us"]) == NAMES
    assert all(v > 0 for v in doc["us"].values())
    assert (doc["repeat"], doc["number"]) == (1, 2)


def test_against_another_tree():
    doc = run("--rounds", "1", "--against", str(SRC))
    assert set(doc["us"]) == set(doc["against_over_src"]) == NAMES
    for name, sides in doc["us"].items():
        assert set(sides) == {"src", "against"}
        assert doc["against_over_src"][name] == sides["against"] / sides["src"]
