"""condtest benchmark: seeded Monte Carlo trials per second, per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pair_small_n --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are listed in BENCHMARK.json. Every
process this starts is a fresh, single-threaded `worker.py` with the
checkout's `src` on PYTHONPATH, run one at a time:

- --trace 0: SETUP_PROBES processes that only time set-up, then one
  process that sets up and measures. `setup_s` is the median of all
  their set-up times; the other end-to-end metrics come from the
  measuring process, so `peak_rss_mb` is that of one workload.
- --trace 1: one process that measures untraced, then traced, and
  reports the per-layer metrics.

Human-readable lines and one JSON document with provenance, per-case
counts and per-trial seeds go to standard output first; the last line
is the result: {"correct", "attempted", "failed", "metrics"}. The
command checks that it emits exactly the metric names and units that
BENCHMARK.json lists for the mode, and exits non-zero without a result
when it cannot run condtest or that check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# Every worker must end before this many seconds from the start.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def run_worker(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
            env=worker_env(), capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return spec, {m["name"]: m["unit"] for m in group}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec, want = expected_metrics(args.trace)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; have {workloads}")
    if not (ROOT / "src" / "condtest" / "__init__.py").is_file():
        raise BenchError(f"no condtest sources under {ROOT / 'src'}")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = []
    if not args.trace:
        probes = [run_worker(["setup", *common], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    doc = run_worker(["measure", *common, "--seconds", str(args.seconds),
                      "--trace", str(args.trace)], deadline)
    metrics = doc.pop("metrics")
    if not args.trace:
        samples = probes + [doc["setup_s"]]
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
        doc["samples"]["setup_s"] = {"percentile": 50.0, "samples": len(samples),
                                     "values": samples}

    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}, wrong unit {wrong}")

    for name in sorted(metrics):
        m = metrics[name]
        print(f"{args.workload:>13} {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:>13} attempted {doc['attempted']} failed {doc['failed']} "
          f"correct_share {doc['correct_share']:.4f} correct {doc['correct']}")
    for err in doc["errors"]:
        print(f"{args.workload:>13} error: {err}")
    print(json.dumps(doc))
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
