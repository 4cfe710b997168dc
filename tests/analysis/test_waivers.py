"""Waiver mechanics: mandatory reasons, family waivers, comment forwarding,
and waivers that name no check."""

import textwrap

import pytest

from repro.analysis import analyze_source
from repro.analysis.waivers import parse_waivers

STOPWATCH = "import time\n\nSTART: float = time.perf_counter()"


def codes(findings):
    return [f.rule for f in findings]


def run(source, path="src/repro/example.py"):
    return analyze_source(textwrap.dedent(source), path=path)


class TestReasonIsMandatory:
    def test_reasonless_waiver_reports_wvr001_and_keeps_finding(self):
        findings = run(STOPWATCH + "  # repro: allow[OBS001]\n")
        assert sorted(codes(findings)) == ["OBS001", "WVR001"]
        wvr = next(f for f in findings if f.rule == "WVR001")
        assert "reason" in wvr.message

    def test_empty_reason_is_reasonless(self):
        findings = run(STOPWATCH + "  # repro: allow[OBS001] reason=\n")
        assert "WVR001" in codes(findings)

    def test_wvr001_cannot_be_waived_by_another_waiver(self):
        findings = run(STOPWATCH + "  # repro: allow[OBS001, WVR001] reason=\n")
        assert "WVR001" in codes(findings)


class TestStaleWaivers:
    """A waiver naming a code or family no check has waives nothing; it is
    reported under WVR001, so no waiver outlives the rule it names."""

    @pytest.mark.parametrize(
        "source",
        [
            "x = 1  # repro: allow[NUM001] reason=stale\n",
            "x = 1  # repro: allow[ZZZ] reason=typo\n",
            "# repro: allow[DET003] reason=retired rule\nx = 1\n",
            "x = 1  # repro: allow[REG] reason=retired family\n",
            "x = 1  # repro: allow[WVR001] reason=not waivable\n",
        ],
        ids=["retired-code", "typo", "comment-line", "retired-family", "wvr001"],
    )
    def test_unknown_code_is_a_finding(self, source):
        findings = run(source)
        assert codes(findings) == ["WVR001"]
        assert "which no check has" in findings[0].message

    def test_known_codes_of_a_partly_stale_waiver_still_waive(self):
        findings = run(STOPWATCH + "  # repro: allow[DET003,OBS001] reason=timing\n")
        assert codes(findings) == ["WVR001"]
        assert findings[0].message.startswith("waiver names DET003, which no check has")

    @pytest.mark.parametrize(
        "code",
        ["OBS001", "OBS", "obs001", "API001", "API003", "DET004", "NUM002", "NUM003",
         "API", "DET", "NUM"],
    )
    def test_known_code_or_family_is_not_stale(self, code):
        assert run(f"x = 1  # repro: allow[{code}] reason=fixture\n") == []

    @pytest.mark.parametrize(
        "code", ["API002", "DET001", "DET002", "DET005", "REG001", "REG002", "RES001", "RES"]
    )
    def test_retired_rule_waiver_is_stale(self, code):
        """Rules whose contract an enforced test or a registration check now
        holds are gone from the check table, so their waivers are stale."""
        findings = run(f"x = 1  # repro: allow[{code}] reason=retired\n")
        assert codes(findings) == ["WVR001"]
        assert findings[0].message.startswith(f"waiver names {code}, which no check has")


class TestWaiverScope:
    def test_family_waiver_covers_all_codes_in_family(self):
        assert run(STOPWATCH + "  # repro: allow[OBS] reason=family-wide waiver\n") == []

    def test_waiver_does_not_cover_other_rules(self):
        findings = run(
            STOPWATCH + "  # repro: allow[NUM002] reason=wrong family on purpose\n\nx = 1\n"
        )
        assert codes(findings) == ["OBS001"]

    def test_multiple_codes_in_one_waiver(self):
        findings = run(
            """
            def f(items):  # repro: allow[API003, OBS001] reason=fixture exercising multi-code waivers
                return items
            """
        )
        assert findings == []

    def test_comment_only_waiver_forwards_to_next_code_line(self):
        findings = run(
            "import time\n\n"
            "# repro: allow[OBS001] reason=standalone comment waiver covers the next code line\n"
            "START: float = time.perf_counter()\n"
        )
        assert findings == []

    def test_waiver_only_covers_its_own_line(self):
        findings = run(
            "import time  # repro: allow[OBS001] reason=waiver stranded on the wrong line\n\n"
            "START: float = time.perf_counter()\n"
        )
        assert codes(findings) == ["OBS001"]


class TestParseWaivers:
    def test_parses_codes_and_reason(self):
        waivers = parse_waivers(
            ["x = 1  # repro: allow[OBS001, NUM002] reason=because fixtures"]
        )
        assert len(waivers) == 1
        assert waivers[0].codes == ("OBS001", "NUM002")
        assert waivers[0].reason == "because fixtures"
        assert waivers[0].valid

    def test_non_waiver_comments_ignored(self):
        assert parse_waivers(["x = 1  # plain comment", "# repro: tracked"]) == []

    @pytest.mark.parametrize(
        "line",
        [
            't = (time.perf_counter(), "# repro: allow[OBS001] reason=only text")',
            "t = (time.perf_counter(), '''# repro: allow[OBS001] reason=only text''')",
            't = (time.perf_counter(), f"# repro: allow[OBS001] reason={1}")',
        ],
        ids=["string", "triple-quoted", "f-string"],
    )
    def test_waiver_text_in_a_string_waives_nothing(self, line):
        assert parse_waivers([line]) == []
        findings = run("import time\n\n" + line + "\n")
        assert codes(findings) == ["OBS001"]

    def test_waiver_in_a_docstring_waives_nothing(self):
        findings = run(
            'import time\n\n\ndef f() -> float:\n    """Example:\n\n'
            "    t = 1  # repro: allow[OBS001] reason=shown, not meant\n"
            '    """\n    return time.perf_counter()\n'
        )
        assert codes(findings) == ["OBS001"]

    def test_comment_after_a_string_still_waives(self):
        waivers = parse_waivers(['x = "#"  # repro: allow[OBS001] reason=real comment'])
        assert [waiver.codes for waiver in waivers] == [("OBS001",)]
