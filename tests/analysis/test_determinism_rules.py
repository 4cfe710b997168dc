"""DET004 fixtures: violating, clean and waived cases."""

import textwrap

from repro.analysis import analyze_source


def codes(findings):
    return [f.rule for f in findings]


def run(source, path="src/repro/example.py"):
    findings = analyze_source(textwrap.dedent(source), path=path)
    return [f for f in findings if f.rule.startswith("DET")]


class TestDET004SetIteration:
    def test_violating_for_over_set_literal(self):
        findings = run("for x in {1, 2, 3}:\n    print(x)\n")
        assert codes(findings) == ["DET004"]

    def test_violating_list_of_set_call(self):
        findings = run("items = list(set([3, 1, 2]))\n")
        assert codes(findings) == ["DET004"]

    def test_violating_comprehension_over_set_algebra(self):
        findings = run("out = [x for x in {1, 2} | {3}]\n")
        assert codes(findings) == ["DET004"]

    def test_violating_for_over_set_comprehension(self):
        findings = run("for x in {y for y in items}:\n    print(x)\n")
        assert codes(findings) == ["DET004"]

    def test_violating_for_over_frozenset_call(self):
        findings = run("for x in frozenset(names):\n    print(x)\n")
        assert codes(findings) == ["DET004"]

    def test_violating_enumerate_over_set(self):
        findings = run("for i, x in enumerate({1, 2}):\n    print(i, x)\n")
        assert codes(findings) == ["DET004"]

    def test_violating_tuple_of_set_difference(self):
        findings = run("order = tuple(set(names) - {'a'})\n")
        assert codes(findings) == ["DET004"]

    def test_violating_dict_comprehension_over_set(self):
        findings = run("table = {k: 0 for k in set(names)}\n")
        assert codes(findings) == ["DET004"]

    def test_clean_integer_bitwise_and_membership(self):
        assert run("mask = 3 | 4\nfor x in a | b:\n    print(x in {1, 2})\n") == []

    def test_clean_sorted_set(self):
        assert run("for x in sorted({1, 2, 3}):\n    print(x)\n") == []

    def test_waived(self):
        findings = run(
            "seen = {1, 2}\nfor x in seen:  # repro: allow[DET004] reason=order-independent membership sweep\n    print(x)\n"
        )
        assert findings == []
