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

Keys are documented inline below. A custom profile is any dict of
overrides applied on top of a preset.
"""

from __future__ import annotations

import json
import math

from .errors import BadProfile


_DESK = {
    # compare: draw budget ceil(compare_c * K * ln(2/delta) / eta^2),
    # clipped at compare_max_draws. compare_c = 3 makes the additive
    # error of the hit fraction at most min(eta/3, 1/(3(K+1))) with
    # failure probability below delta.
    "compare_c": 3.0,
    "compare_max_draws": 1.0e15,
    # estimate_neighborhood: |S| = ceil(en_sample_c * ln(4/delta) / (beta eta^2)),
    # capped; eta/delta floors applied to its internal compare calls.
    "en_sample_c": 2.0,
    "en_sample_cap": 400,
    "en_compare_eta_floor": 0.02,
    "en_compare_delta_floor": 1.0e-4,
    # uniformity tester: q reference points; stage sample size
    # s_j = ceil(unif_s_c * 2^j * t); per-stage compare confidence
    # exp(-unif_delta_c * t); compare eta equals the stage window
    # 2^(j-5) eps / 4.
    "unif_q": 4,
    "unif_s_c": 1.0,
    "unif_delta_c": 3.0,
    # identity tester, pair-query variant: phase one sample
    # m = ceil(known_m_c * b^2 * log2(2b) / eta^2); cross sample
    # s = ceil(known_s_c * b / eps) per side.
    "known_m_c": 1.0,
    "known_s_c": 1.0,
    # identity tester, general-query variant.
    "heavy_m_c": 1000.0,    # m = ceil(heavy_m_c * log2(4/eps) / eps^4)
    "main_gate_c": 1500.0,  # prefix gate sample ceil(main_gate_c / eps^2)
    "main_l_c": 24.0,       # drawn points ell = ceil(main_l_c / eps)
    "main_recheck_c": 2.0e5,  # per-point prefix re-check ceil(c * log2(4/eps)/eps)
    "main_h_c": 8.0,        # witness comparisons per point ceil(main_h_c / eps)
    # equality tester, pair-query variant. Reference sample
    # t = ceil(eq_t_c * log2(2N) / eps^2); s1 = ceil(eq_s1_c * t / eps^2);
    # s2 = ceil(eq_s2_c * t * log2(t+1) / eps^3).
    "eq_t_c": 0.25,
    "eq_s1_c": 0.5,
    "eq_s2_c": 0.5,
    "eq_en_sample_cap": 200,
    "eq_compare_eta_floor": 0.002,
    "eq_compare_delta_floor": 1.0e-4,
    # approximate point-mass evaluator: per-round draw budget is the
    # formula value scaled by ae_m_c, clipped into
    # [max(ae_m_floor_c / kappa, ae_m_min), ae_m_cap] from below/above.
    "ae_m_c": 1.0,
    "ae_m_cap": 5.0e7,
    "ae_m_floor_c": 50.0,
    "ae_m_min": 2.0e6,
    "ae_kappa_c": 1.0,
    "ae_eps_cap": 0.125,
    # reference point search: candidate sample
    # ceil(fr_x_c * log2(2/kappa) / kappa^2) capped at fr_x_cap;
    # per-candidate uniform sample ceil(fr_y_c * (log2(2/kappa))^2 / kappa^5)
    # capped at fr_y_cap.
    "fr_x_c": 1.0,
    "fr_x_cap": 40,
    "fr_y_c": 1.0,
    "fr_y_cap": 500,
    "fr_en_sample_cap": 400,
    "fr_compare_eta_floor": 0.02,
    "fr_compare_delta_floor": 1.0e-4,
    # distance-to-uniformity estimator: uniform sample ceil(dist_s_c / eps^2).
    "dist_s_c": 3.0,
    # interval tester: points drawn t = ceil(icond_t_c / eps).
    "icond_t_c": 20.0,
}

_THEORETICAL = dict(_DESK)
_THEORETICAL.update(
    {
        "compare_max_draws": 4.0e18,
        "en_sample_c": 4.0,
        "en_sample_cap": 10**9,
        "en_compare_eta_floor": 1.0e-4,
        "en_compare_delta_floor": 1.0e-12,
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
_COUNTS = ("unif_q", "en_sample_cap", "eq_en_sample_cap", "fr_x_cap",
           "fr_y_cap", "fr_en_sample_cap")
_CONFIDENCES = ("en_compare_delta_floor", "eq_compare_delta_floor",
                "fr_compare_delta_floor")
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
    """Accepts a ConstantsProfile, a preset name, or a path to a JSON
    file {"base": <preset>, "overrides": {...}}."""
    if isinstance(spec, ConstantsProfile):
        return spec
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
