"""Constants profiles.

Every hidden constant in the testers is collected in a flat
key -> number table so a run can be reproduced from its report. Two
presets ship with the library:

  theoretical  constants sized from the union-bound bookkeeping in the
               analysis. Sample counts that only enter through batched
               count observations are left at full size; numeric
               guardrails (max draws per comparison, grid caps) keep
               the simulation inside int64/float64 range.

  desk         smaller constants tuned so the 2/3 accept/reject
               contracts still hold empirically on the acceptance
               suite while per-run Python-level loop counts stay
               small. This is the default profile.

A custom profile is any dict of overrides applied on top of a preset;
resolve_profile, and so an ExperimentConfig, takes a bare dict as
overrides on desk.

Only the schedules read the table: each tester has one pure function,
schedule(n, eps, profile) in its module (uniformity.schedule(eps,
profile), and pcond_/cond_/eval_schedule where a module holds two
testers), that turns it into every sample size, draw budget, cap,
floor and window one run uses. Windows the analysis fixes as
multiples of eps (eps/12, eps/(48 log2 N), the eps/10..eps/6 ladder,
et = eps/100) are constants in those schedules, not keys.
"""

from __future__ import annotations

import json
import math
import os

from .errors import BadProfile


_DESK = {
    # Each group names the schedule that reads it; the formulas are there.
    # subroutines.compare_budget: ceil(compare_c K ln(2/delta) / eta^2)
    # draws, clipped at compare_max_draws. compare_c = 3 makes the
    # additive error of the hit fraction at most min(eta/3, 1/(3(K+1)))
    # with failure probability below delta.
    "compare_c": 3.0,
    "compare_max_draws": 1.0e15,
    # subroutines.neighborhood_schedule; the cap and the floors on its
    # comparisons are the caller's eq_* or fr_* keys.
    "en_sample_c": 2.0,
    # uniformity.schedule: q reference points, stage sizes, confidence.
    "unif_q": 4,
    "unif_s_c": 1.0,
    "unif_delta_c": 3.0,
    # identity.pcond_schedule: phase one's and phase two's samples.
    "known_m_c": 1.0,
    "known_s_c": 1.0,
    # identity.cond_schedule: the Heavy sample, the prefix gate, the
    # drawn points, their prefix re-checks and witnesses per point.
    "heavy_m_c": 1000.0,
    "main_gate_c": 1500.0,
    "main_l_c": 24.0,
    "main_recheck_c": 2.0e5,
    "main_h_c": 8.0,
    # equality.pcond_schedule: references, the two cross samples, and
    # the neighborhood estimates' cap and comparison floors.
    "eq_t_c": 0.25,
    "eq_s1_c": 0.5,
    "eq_s2_c": 0.5,
    "eq_en_sample_cap": 200,
    "eq_compare_eta_floor": 0.002,
    "eq_compare_delta_floor": 1.0e-4,
    # equality.approx_eval_schedule: the per-round draws, the formula's
    # value times ae_m_c clipped into [max(ae_m_floor_c / kappa,
    # ae_m_min), ae_m_cap]; kappa's factor; the eps clamp.
    "ae_m_c": 1.0,
    "ae_m_cap": 5.0e7,
    "ae_m_floor_c": 50.0,
    "ae_m_min": 2.0e6,
    "ae_kappa_c": 1.0,
    "ae_eps_cap": 0.125,
    # distance.schedule: candidates and uniform points per candidate in
    # find_reference, with caps; the neighborhood estimates' cap and
    # comparison floors; the distance estimate's uniform sample.
    "fr_x_c": 1.0,
    "fr_x_cap": 40,
    "fr_y_c": 1.0,
    "fr_y_cap": 500,
    "fr_en_sample_cap": 400,
    "fr_compare_eta_floor": 0.02,
    "fr_compare_delta_floor": 1.0e-4,
    "dist_s_c": 3.0,
    # interval.schedule: points walked.
    "icond_t_c": 20.0,
}

_THEORETICAL = dict(_DESK)
_THEORETICAL.update(
    {
        "compare_max_draws": 4.0e18,
        "en_sample_c": 4.0,
        "unif_q": 8,
        "unif_s_c": 4.0,
        "unif_delta_c": 6.0,
        "known_m_c": 4.0,
        "known_s_c": 4.0,
        "heavy_m_c": 4000.0,
        "main_gate_c": 6000.0,
        "main_l_c": 92.0,
        "main_recheck_c": 8.0e5,
        "main_h_c": 32.0,
        "eq_t_c": 1.0,
        "eq_s1_c": 2.0,
        "eq_s2_c": 2.0,
        "eq_en_sample_cap": 10**9,
        "eq_compare_eta_floor": 1.0e-4,
        "eq_compare_delta_floor": 1.0e-12,
        "ae_m_cap": 1.0e15,
        "ae_m_min": 2.0e6,
        "fr_x_cap": 10**9,
        "fr_y_cap": 10**9,
        "fr_en_sample_cap": 10**9,
        "fr_compare_eta_floor": 1.0e-4,
        "fr_compare_delta_floor": 1.0e-12,
        "dist_s_c": 12.0,
    }
)

PRESETS = {"desk": _DESK, "theoretical": _THEORETICAL}

# Value rules. Sample sizes and caps on them are integers >= 1; the
# delta floors are confidences in (0, 1); caps on draws per call lie in
# [1, 2^63), the counts numpy's samplers take; every other constant is
# a finite number > 0.
_COUNTS = ("unif_q", "eq_en_sample_cap", "fr_x_cap", "fr_y_cap",
           "fr_en_sample_cap")
_CONFIDENCES = ("eq_compare_delta_floor", "fr_compare_delta_floor")
_DRAW_CAPS = ("compare_max_draws", "ae_m_cap", "ae_m_min")


def _check_value(key, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise BadProfile(f"profile key {key!r} must be a number, got {v!r}")
    if key in _COUNTS:
        ok, want = isinstance(v, int) and v >= 1, "an integer >= 1"
    elif key in _CONFIDENCES:
        ok, want = 0.0 < v < 1.0, "in (0, 1)"
    elif key in _DRAW_CAPS:
        ok, want = 1 <= v < 2**63, "in [1, 2^63)"
    else:
        ok, want = 0.0 < v < math.inf, "a finite number > 0"
    if not ok:
        raise BadProfile(f"profile key {key!r} must be {want}, got {v!r}")


class ConstantsProfile:
    """Immutable view over a flat constants table."""

    def __init__(self, name="desk", overrides=None):
        if name not in PRESETS:
            raise BadProfile(f"unknown profile preset {name!r}")
        table = dict(PRESETS[name])
        if overrides:
            if not isinstance(overrides, dict):
                raise BadProfile(f"profile overrides must be an object, got {overrides!r}")
            unknown = set(overrides) - set(table)
            if unknown:
                raise BadProfile(f"unknown profile keys: {sorted(unknown)}")
            for key, v in overrides.items():
                _check_value(key, v)
            table.update(overrides)
        self.name = name
        self.overrides = dict(overrides or {})
        self._table = table

    def __getitem__(self, key):
        return self._table[key]

    def as_dict(self):
        return dict(self._table)

    def echo(self):
        """Serializable description for reports."""
        return {"name": self.name, "overrides": dict(self.overrides),
                "table": self.as_dict()}

    def __repr__(self):
        tag = "+overrides" if self.overrides else ""
        return f"ConstantsProfile({self.name}{tag})"


DESK = ConstantsProfile("desk")
THEORETICAL = ConstantsProfile("theoretical")


def resolve_profile(spec) -> ConstantsProfile:
    """Accepts a ConstantsProfile, a preset name, a dict of overrides on
    desk, or a path to a JSON file {"base": <preset>, "overrides": {...}}."""
    if isinstance(spec, ConstantsProfile):
        return spec
    if isinstance(spec, dict):
        return ConstantsProfile("desk", spec)
    if not isinstance(spec, (str, os.PathLike)):
        raise BadProfile(f"a profile is a preset name, a dict or a file path, "
                         f"not {type(spec).__name__}")
    if spec in PRESETS:
        return ConstantsProfile(spec)
    try:
        with open(spec) as f:
            doc = json.load(f)
    except OSError as e:
        raise BadProfile(f"{spec!r} is neither a preset nor a readable file: "
                         f"{e.strerror}") from e
    except ValueError as e:
        raise BadProfile(f"profile file {spec!r} is not JSON: {e}") from e
    if not isinstance(doc, dict):
        raise BadProfile(f"profile file {spec!r} must hold a JSON object")
    return ConstantsProfile(doc.get("base", "desk"), doc.get("overrides"))
