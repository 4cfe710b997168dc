"""NUM rule fixtures: one violating, one clean, one waived per rule."""

import textwrap

from repro.analysis import analyze_source


def codes(findings):
    return [f.rule for f in findings]


def run(source, path="src/repro/example.py"):
    # Keep the family under test, so fixture scaffolding (unannotated
    # defs, etc.) does not trip unrelated rules.
    findings = analyze_source(textwrap.dedent(source), path=path)
    return [f for f in findings if f.rule.startswith("NUM")]


class TestNUM002BoolSumWithoutDtype:
    def test_violating_comparison_sum(self):
        findings = run(
            """
            def count_changed(a, b):
                return (a != b).sum()
            """
        )
        assert codes(findings) == ["NUM002"]
        assert "dtype" in findings[0].message

    def test_clean_explicit_dtype(self):
        findings = run(
            """
            import numpy as np

            def count_changed(a, b):
                return (a != b).sum(dtype=np.int64)
            """
        )
        assert findings == []

    def test_waived(self):
        findings = run(
            """
            def count(mask_a, mask_b):
                return (mask_a & ~mask_b).sum()
            """
        )
        # Bitwise ops on ints are not flagged; only boolean-producing
        # comparisons / BoolOps / `not` are.
        assert findings == []


class TestNUM003FloatEquality:
    def test_violating_float_eq(self):
        findings = run(
            """
            def is_half(x):
                return x == 0.5
            """
        )
        assert codes(findings) == ["NUM003"]

    def test_violating_float_ne(self):
        findings = run("flag = y != 1.5\n")
        assert codes(findings) == ["NUM003"]

    def test_clean_int_eq(self):
        assert run("flag = n == 3\n") == []

    def test_clean_float_inequality(self):
        assert run("flag = x < 0.5\n") == []

    def test_waived(self):
        findings = run(
            "guard = denom == 0.0  # repro: allow[NUM003] reason=exact-zero division guard\n"
        )
        assert findings == []
