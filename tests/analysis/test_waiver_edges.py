"""Waiver-placement edge cases: decorators, multi-line defs, families.

The forwarding rules under test (see
:class:`repro.analysis.waivers.WaiverTable`): a comment-only waiver
covers the next code line; when that line is a decorator, coverage
extends through the decorator chain to the ``def`` itself; and a
family-level code (``# repro: allow[NUM]``) covers every rule of the
family.
"""

import textwrap

from repro.analysis.engine import analyze_source


def _source(text):
    return textwrap.dedent(text).lstrip("\n")


def _api003(text):
    """The API003 findings of one module."""
    return [f for f in analyze_source(_source(text), path="src/mod.py") if f.rule == "API003"]


class TestDecoratedFunctions:
    def test_waiver_above_decorator_covers_the_def(self):
        findings = _api003(
            """
            # repro: allow[API003] reason=registered callback, signature fixed by the protocol
            @memoised
            def handler(event):
                return event
            """
        )
        assert findings == []

    def test_waiver_forwards_through_a_decorator_chain(self):
        findings = _api003(
            """
            # repro: allow[API003] reason=registered callback, signature fixed by the protocol
            @first
            @second
            @third
            def handler(event):
                return event
            """
        )
        assert findings == []

    def test_undecorated_neighbour_is_not_covered(self):
        findings = _api003(
            """
            # repro: allow[API003] reason=registered callback, signature fixed by the protocol
            @memoised
            def handler(event):
                return event


            def other(event):
                return event
            """
        )
        assert findings, "the waiver must not cover the undecorated neighbour"
        assert {f.rule for f in findings} == {"API003"}
        assert all("other" in f.message for f in findings)


class TestMultiLineSignatures:
    def test_waiver_above_multi_line_def_covers_it(self):
        findings = _api003(
            """
            # repro: allow[API003] reason=harness shim, params documented in the runbook
            def handler(
                event,
                context,
                retries,
            ):
                return event
            """
        )
        assert findings == []

    def test_waiver_on_the_def_line_itself_covers_it(self):
        findings = _api003(
            """
            def handler(  # repro: allow[API003] reason=harness shim
                event,
                context,
            ):
                return event
            """
        )
        assert findings == []


class TestFamilyWaivers:
    _MASK = """
        def half_changed(a: int, b: int) -> bool:
            {waiver}
            return (a != b).mean() == 0.5
    """

    def _findings(self, waiver):
        return analyze_source(
            _source(self._MASK.format(waiver=waiver)), path="src/mypkg/mask.py"
        )

    def test_family_waiver_covers_every_rule_of_the_family(self):
        assert [f.rule for f in self._findings("")] == ["NUM002", "NUM003"]
        waived = self._findings("# repro: allow[NUM] reason=exploratory mask statistic")
        assert waived == []

    def test_family_waiver_does_not_leak_across_families(self):
        findings = self._findings("# repro: allow[API] reason=wrong family on purpose")
        assert [f.rule for f in findings] == ["NUM002", "NUM003"]
