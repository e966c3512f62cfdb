import json

import pytest

from condtest.errors import BadProfile
from condtest.profiles import (
    DESK,
    PRESETS,
    THEORETICAL,
    ConstantsProfile,
    resolve_profile,
)


class TestConstantsProfile:
    def test_presets_exist(self):
        assert set(PRESETS) == {"desk", "theoretical"}
        assert DESK["compare_c"] == 3.0
        assert THEORETICAL["en_sample_cap"] > DESK["en_sample_cap"]

    def test_same_keys_in_both_presets(self):
        assert set(PRESETS["desk"]) == set(PRESETS["theoretical"])

    def test_overrides(self):
        p = ConstantsProfile("desk", {"compare_c": 5.0})
        assert p["compare_c"] == 5.0
        assert p["unif_q"] == DESK["unif_q"]

    def test_unknown_key_rejected(self):
        with pytest.raises(BadProfile):
            ConstantsProfile("desk", {"mystery_c": 1.0})
        with pytest.raises(BadProfile):
            ConstantsProfile("galactic")

    @pytest.mark.parametrize("key, value, match", [
        ("unif_q", -1, "integer >= 1"),
        ("unif_q", 0, "integer >= 1"),
        ("unif_q", 2.5, "integer >= 1"),
        ("en_sample_cap", 400.0, "integer >= 1"),
        ("compare_c", "x", "must be a number"),
        ("compare_c", True, "must be a number"),
        ("compare_c", None, "must be a number"),
        ("compare_c", 0.0, "finite number > 0"),
        ("compare_c", float("nan"), "finite number > 0"),
        ("compare_c", float("inf"), "finite number > 0"),
        ("icond_t_c", -20.0, "finite number > 0"),
        ("en_compare_delta_floor", 1.0, r"in \(0, 1\)"),
        ("fr_compare_delta_floor", 0.0, r"in \(0, 1\)"),
        ("compare_max_draws", 0.5, r"in \[1, 2\^63\)"),
        ("compare_max_draws", 1e19, r"in \[1, 2\^63\)"),
    ])
    def test_bad_value_rejected(self, key, value, match):
        with pytest.raises(BadProfile, match=match):
            ConstantsProfile("desk", {key: value})

    def test_overrides_must_be_an_object(self):
        with pytest.raises(BadProfile, match="must be an object"):
            ConstantsProfile("desk", [["unif_q", 2]])

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_values_pass_the_rules(self, name):
        ConstantsProfile(name, dict(PRESETS[name]))

    def test_echo_serializable(self):
        p = ConstantsProfile("desk", {"compare_c": 4.0})
        doc = json.loads(json.dumps(p.echo()))
        assert doc["name"] == "desk"
        assert doc["overrides"] == {"compare_c": 4.0}
        assert doc["table"]["compare_c"] == 4.0


class TestResolveProfile:
    def test_passthrough_and_names(self):
        assert resolve_profile(DESK) is DESK
        assert resolve_profile("theoretical").name == "theoretical"

    def test_json_file(self, tmp_path):
        p = tmp_path / "prof.json"
        p.write_text(json.dumps({"base": "desk", "overrides": {"unif_q": 2}}))
        prof = resolve_profile(str(p))
        assert prof["unif_q"] == 2

    def test_unknown_name_is_bad_profile(self, tmp_path):
        with pytest.raises(BadProfile, match="neither a preset"):
            resolve_profile(str(tmp_path / "nonsense"))

    @pytest.mark.parametrize("text, match", [
        ('{"base": "desk", "overrides": {"mystery_c": 1}}', "unknown profile keys"),
        ('{"base": "galactic"}', "unknown profile preset"),
        ("base = desk", "not JSON"),
        ("[1, 2]", "JSON object"),
    ])
    def test_bad_file_is_bad_profile(self, tmp_path, text, match):
        p = tmp_path / "prof.json"
        p.write_text(text)
        with pytest.raises(BadProfile, match=match):
            resolve_profile(str(p))
