"""Waiver mechanics: mandatory reasons, family waivers, comment forwarding."""

import textwrap

from repro.analysis import analyze_source
from repro.analysis.waivers import parse_waivers


def codes(findings):
    return [f.rule for f in findings]


def run(source, path="src/repro/example.py", **kwargs):
    return analyze_source(textwrap.dedent(source), path=path, **kwargs)


class TestReasonIsMandatory:
    def test_reasonless_waiver_reports_wvr001_and_keeps_finding(self):
        findings = run("import random  # repro: allow[DET002]\n")
        assert sorted(codes(findings)) == ["DET002", "WVR001"]
        wvr = next(f for f in findings if f.rule == "WVR001")
        assert "reason" in wvr.message

    def test_empty_reason_is_reasonless(self):
        findings = run("import random  # repro: allow[DET002] reason=\n")
        assert "WVR001" in codes(findings)

    def test_wvr001_cannot_be_waived_by_another_waiver(self):
        findings = run(
            "import random  # repro: allow[DET002, WVR001] reason=\n"
        )
        assert "WVR001" in codes(findings)


class TestWaiverScope:
    def test_family_waiver_covers_all_codes_in_family(self):
        findings = run(
            "import random  # repro: allow[DET] reason=family-wide waiver in fixture\n"
        )
        assert findings == []

    def test_waiver_does_not_cover_other_rules(self):
        findings = run(
            """
            import random  # repro: allow[NUM002] reason=wrong family on purpose

            x = 1
            """
        )
        assert codes(findings) == ["DET002"]

    def test_multiple_codes_in_one_waiver(self):
        findings = run(
            """
            def f(items=[]):  # repro: allow[API002, API003] reason=fixture exercising multi-code waivers
                return items
            """
        )
        assert findings == []

    def test_comment_only_waiver_forwards_to_next_code_line(self):
        findings = run(
            """
            # repro: allow[DET002] reason=standalone comment waiver covers the next code line
            import random
            """
        )
        assert findings == []

    def test_waiver_only_covers_its_own_line(self):
        findings = run(
            """
            import math  # repro: allow[DET002] reason=waiver stranded on the wrong line

            import random
            """
        )
        assert codes(findings) == ["DET002"]


class TestParseWaivers:
    def test_parses_codes_and_reason(self):
        waivers = parse_waivers(
            ["x = 1  # repro: allow[DET001, NUM002] reason=because fixtures"]
        )
        assert len(waivers) == 1
        assert waivers[0].codes == ("DET001", "NUM002")
        assert waivers[0].reason == "because fixtures"
        assert waivers[0].valid

    def test_non_waiver_comments_ignored(self):
        assert parse_waivers(["x = 1  # plain comment", "# repro: tracked"]) == []
