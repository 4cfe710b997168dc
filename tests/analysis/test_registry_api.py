"""The rule registry: registration, selection, custom rules end to end."""

import ast

import pytest

from repro.analysis import (
    analyze_source,
    available_rules,
    register_rule,
    rule_specs,
    unregister_rule,
)
from repro.analysis.registry import get_rule, select_rules
from repro.errors import ConfigurationError

EXPECTED_RULES = {
    "DET001", "DET002", "DET003", "DET004", "DET005",
    "NUM002", "NUM003",
    "REG001", "REG002",
    "API001", "API002", "API003",
    "OBS001",
    "RES001",
}


class TestBuiltinRegistry:
    def test_all_builtin_rules_registered(self):
        assert EXPECTED_RULES <= set(available_rules())

    def test_builtin_families(self):
        families = {spec.family for spec in rule_specs()}
        assert families == {"DET", "NUM", "REG", "API", "OBS", "RES"}

    def test_specs_have_summaries(self):
        for spec in rule_specs():
            assert spec.summary, f"{spec.code} is missing a summary"

    def test_family_property(self):
        assert get_rule("det001").family == "DET"

    def test_unknown_rule_raises(self):
        with pytest.raises(ConfigurationError):
            get_rule("ZZZ999")


class TestSelection:
    def test_family_token_selects_whole_family(self):
        codes = {spec.code for spec in select_rules(["DET"])}
        assert codes == {"DET001", "DET002", "DET003", "DET004", "DET005"}

    def test_ignore_wins_over_select(self):
        codes = {spec.code for spec in select_rules(["DET"], ["DET003"])}
        assert "DET003" not in codes and "DET001" in codes

    def test_unknown_select_token_raises(self):
        with pytest.raises(ConfigurationError, match="NOPE"):
            select_rules(["NOPE"])

    def test_unknown_ignore_token_raises(self):
        with pytest.raises(ConfigurationError, match="--ignore"):
            select_rules(None, ["TYPO001"])


class TestCustomRule:
    def test_register_analyze_unregister(self):
        @register_rule("TST001", summary="no variables named forbidden")
        def check_forbidden(module):
            for node in module.walk(ast.Name):
                if node.id == "forbidden":
                    yield module.finding("TST001", node, "rename this")

        try:
            findings = analyze_source("forbidden = 1\n", select=["TST001"])
            assert [f.rule for f in findings] == ["TST001"]
            waived = analyze_source(
                "forbidden = 1  # repro: allow[TST001] reason=custom-rule waiver fixture\n",
                select=["TST001"],
            )
            assert waived == []
        finally:
            unregister_rule("TST001")
        assert "TST001" not in available_rules()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_rule("DET001", summary="duplicate")(lambda module: [])
