"""Registry resolution of generated workloads and the satellite-2
error-message contract (near-miss suggestions, never a bare KeyError)."""

from __future__ import annotations

import pytest

from repro.workloads.registry import ALL_WORKLOADS, get_workload


class TestGenNamespace:
    def test_gen_spec_resolves_and_memoizes(self):
        workload = get_workload("gen:small:42")
        assert workload.name == "gen:small:42"
        assert len(workload.scenarios) >= 2
        assert get_workload("gen:small:42") is workload

    def test_gen_names_never_shadow_the_suite(self):
        assert not any(name.startswith("gen:") for name in ALL_WORKLOADS)


class TestHelpfulErrors:
    def test_near_miss_suggestion(self):
        with pytest.raises(KeyError, match="did you mean adpcm"):
            get_workload("adpcmm")

    def test_unknown_name_lists_known_and_gen_usage(self):
        with pytest.raises(KeyError) as excinfo:
            get_workload("no-such-workload")
        message = excinfo.value.args[0]
        assert "adpcm" in message
        assert "gen:<profile>:<seed>" in message

    def test_malformed_gen_spec(self):
        with pytest.raises(KeyError, match="gen:<profile>:<seed>"):
            get_workload("gen:small")

    def test_unknown_gen_profile_message_is_clean(self):
        with pytest.raises(KeyError) as excinfo:
            get_workload("gen:smal:3")
        message = excinfo.value.args[0]
        assert message.startswith("unknown generation profile")
        assert "small" in message
        # Re-wrapping must not stack quoting (a bare KeyError reprs its
        # payload, so a sloppy wrap shows \'smal\' inside double quotes).
        assert "\\'" not in message
