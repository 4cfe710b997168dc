"""The ``rules`` catalog subcommand."""

import json

from repro.analysis.cli import main
from repro.analysis.registry import rule_specs


class TestRulesSubcommand:
    def test_catalog_renders_every_rule(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        for spec in rule_specs():
            assert spec.code in out
            assert f"{spec.code}  [{spec.family}]" in out
            assert f"# repro: allow[{spec.code}]" in out

    def test_json_catalog(self, capsys):
        assert main(["rules", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        codes = {entry["code"] for entry in payload["rules"]}
        assert {"DET001", "REG001", "RES001"} <= codes
        for entry in payload["rules"]:
            assert entry["doc"], f"{entry['code']} has an empty catalog doc"
            assert entry["waiver"].startswith("# repro: allow[")

    def test_rules_takes_no_paths(self, capsys):
        assert main(["rules", "src"]) == 2

    def test_every_rule_has_a_doc(self):
        """Meta-test: a rule without a docstring has no catalog entry."""
        for spec in rule_specs():
            assert spec.doc.strip(), f"{spec.code} check function is missing its docstring"
            assert spec.summary.strip(), f"{spec.code} is missing a summary"
