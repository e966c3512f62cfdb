"""The benchmark's workloads: named lists of tester cases.

Every case is driven through `harness.run_experiment`, one trial per
call. A case expects a verdict, or, for `dist_uniformity`, an estimate
within eps of the exact distance to uniform. `ledger_total` names the
exact query total every trial of the case must show, when the tester's
schedule makes it seed-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACCEPT = "Accept"
REJECT = "Reject"


@dataclass
class Case:
    name: str
    tester: str
    spec: object
    spec2: object = None
    want: object = None         # verdict string, or exact distance
    eps: float = 0.5
    ledger_total: int = None
    seed: int = 0               # cfg.seed; trial r runs with seed ^ r

    def is_correct(self, verdict, estimate):
        if self.tester == "dist_uniformity":
            return abs(estimate - self.want) <= self.eps
        return verdict == self.want


def cond_known_total(ct, profile):
    """Ledger total of one cond_known U/U trial at N = 2^10.

    The Main branch keeps an oblivious schedule, so every U/U trial, at
    any seed and any N, must show this total.
    """
    u = ct.uniform(2**10)
    rec = ct.run_trial("cond_known", u, ct.KnownTarget(u), 0.5, 0, profile)
    return rec.ledger.total


def build(ct, workload, profile):
    """The workload's cases, before seeds are assigned."""
    budget = ct.query_budget(0.5, profile)
    if workload == "pair_small_n":
        u4, u10, u8 = ct.uniform(10**4), ct.uniform(2**10), ct.uniform(256)
        stair = ct.gen_staircase(2, 4)
        pert = ct.gen_staircase(2, 4, ["up_down"] * 4)
        half8 = ct.gen_half_split(256, 0.5)
        dist_cases = [
            ("U_256", u8),
            ("half_split_256", ct.gen_half_split(256, 0.25)),
            ("block_profile_256", ct.gen_block_profile(
                256, 4, 11, ["up_down", "down_up"] * 8, 0.25)),
        ]
        return [
            Case("pcond_uniform/U_1e4", "pcond_uniform", u4, want=ACCEPT,
                 ledger_total=budget),
            Case("pcond_uniform/half_split_1e4", "pcond_uniform",
                 ct.gen_half_split(10**4, 0.5), want=REJECT, ledger_total=budget),
            Case("pcond_known/U_U_1024", "pcond_known", u10, u10, ACCEPT),
            Case("pcond_known/stair_stair", "pcond_known", stair, stair, ACCEPT),
            Case("pcond_known/pert_stair", "pcond_known", pert, stair, REJECT),
            Case("pcond_equality/U_U_256", "pcond_equality", u8, u8, ACCEPT),
            Case("pcond_equality/U_half_split_256", "pcond_equality", u8, half8,
                 REJECT),
        ] + [
            Case(f"dist_uniformity/{label}", "dist_uniformity", d,
                 want=ct.tv_distance(d, u8), eps=0.25)
            for label, d in dist_cases
        ]
    if workload == "set_small_n":
        cond_total = cond_known_total(ct, profile)
        u10, u8, u12 = ct.uniform(2**10), ct.uniform(256), ct.uniform(2**12)
        stair = ct.gen_staircase(2, 4)
        pert = ct.gen_staircase(2, 4, ["up_down"] * 4)
        block12 = ct.rand_block_profile(2**12, 0.5, np.random.default_rng(90), x=6)
        return [
            Case("cond_known/U_U_1024", "cond_known", u10, u10, ACCEPT,
                 ledger_total=cond_total),
            Case("cond_known/stair_stair", "cond_known", stair, stair, ACCEPT),
            Case("cond_known/pert_stair", "cond_known", pert, stair, REJECT),
            Case("eval_equality/U_U_256", "eval_equality", u8, u8, ACCEPT),
            Case("eval_equality/U_half_split_256", "eval_equality", u8,
                 ct.gen_half_split(256, 0.5), REJECT),
            Case("icond_uniform/U_4096", "icond_uniform", u12, want=ACCEPT),
            Case("icond_uniform/block_4096", "icond_uniform", block12,
                 want=REJECT),
        ]
    if workload == "large_n":
        cond_total = cond_known_total(ct, profile)
        u14, u16 = ct.uniform(2**14), ct.uniform(2**16)
        block16 = ct.rand_block_profile(2**16, 0.5, np.random.default_rng(90), x=6)
        return [
            Case("icond_uniform/U_65536", "icond_uniform", u16, want=ACCEPT),
            Case("icond_uniform/block_65536", "icond_uniform", block16,
                 want=REJECT),
            Case("cond_known/U_U_16384", "cond_known", u14, u14, ACCEPT,
                 ledger_total=cond_total),
            Case("cond_known/half_split_U_16384", "cond_known",
                 ct.gen_half_split(2**14, 0.5), u14, REJECT),
            Case("pcond_uniform/U_1048576", "pcond_uniform", ct.uniform(2**20),
                 want=ACCEPT, ledger_total=budget),
        ]
    raise KeyError(f"unknown workload {workload!r}")

