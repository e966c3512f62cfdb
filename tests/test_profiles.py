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
