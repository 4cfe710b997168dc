"""API hygiene rule fixtures."""

import textwrap

from repro.analysis import analyze_source


def codes(findings):
    return [f.rule for f in findings]


def run(source, path="src/repro/example.py"):
    findings = analyze_source(textwrap.dedent(source), path=path)
    return [f for f in findings if f.rule.startswith("API")]


class TestAPI001BlanketExcept:
    def test_violating_except_exception(self):
        findings = run(
            """
            def load(path: str) -> str:
                try:
                    return open(path).read()
                except Exception:
                    return ""
            """
        )
        assert codes(findings) == ["API001"]

    def test_violating_bare_except(self):
        findings = run(
            """
            def load(path: str) -> str:
                try:
                    return open(path).read()
                except:
                    return ""
            """
        )
        assert codes(findings) == ["API001"]

    def test_clean_narrow_except(self):
        findings = run(
            """
            def load(path: str) -> str:
                try:
                    return open(path).read()
                except (OSError, ValueError):
                    return ""
            """
        )
        assert findings == []

    def test_waived(self):
        findings = run(
            """
            def shield(callback) -> None:  # repro: allow[API003] reason=fixture brevity
                try:
                    callback()
                # repro: allow[API001] reason=cancel in-flight work on any failure, then re-raise
                except Exception:
                    raise
            """
        )
        assert findings == []


class TestAPI003MissingTypeHints:
    def test_violating_unannotated_public_function(self):
        findings = run(
            """
            def total(values):
                return sum(values)
            """
        )
        # One finding for the unannotated parameter, one for the missing
        # return annotation.
        assert codes(findings) == ["API003", "API003"]

    def test_clean_private_function_is_skipped(self):
        findings = run(
            """
            def _total(values):
                return sum(values)
            """
        )
        assert findings == []

    def test_clean_fully_annotated(self):
        findings = run(
            """
            def total(values: list) -> int:
                return sum(values)
            """
        )
        assert findings == []

    def test_waived(self):
        findings = run(
            """
            def total(values):  # repro: allow[API003] reason=duck-typed numeric protocol, annotation would lie
                return sum(values)
            """
        )
        assert findings == []
