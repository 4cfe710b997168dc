"""Waiver-placement edge cases: decorators, multi-line defs, families.

The forwarding rules under test (see
:class:`repro.analysis.waivers.WaiverTable`): a comment-only waiver
covers the next code line; when that line is a decorator, coverage
extends through the decorator chain to the ``def`` itself; and a
family-level code (``# repro: allow[DET]``) covers every rule of the
family.
"""

import textwrap

from repro.analysis.engine import analyze_source


def _source(text):
    return textwrap.dedent(text).lstrip("\n")


class TestDecoratedFunctions:
    def test_waiver_above_decorator_covers_the_def(self):
        findings = analyze_source(
            _source(
                """
                # repro: allow[API003] reason=registered callback, signature fixed by the protocol
                @memoised
                def handler(event):
                    return event
                """
            ),
            path="src/mod.py",
            select=["API003"],
        )
        assert findings == []

    def test_waiver_forwards_through_a_decorator_chain(self):
        findings = analyze_source(
            _source(
                """
                # repro: allow[API003] reason=registered callback, signature fixed by the protocol
                @first
                @second
                @third
                def handler(event):
                    return event
                """
            ),
            path="src/mod.py",
            select=["API003"],
        )
        assert findings == []

    def test_undecorated_neighbour_is_not_covered(self):
        findings = analyze_source(
            _source(
                """
                # repro: allow[API003] reason=registered callback, signature fixed by the protocol
                @memoised
                def handler(event):
                    return event


                def other(event):
                    return event
                """
            ),
            path="src/mod.py",
            select=["API003"],
        )
        assert findings, "the waiver must not cover the undecorated neighbour"
        assert {f.rule for f in findings} == {"API003"}
        assert all("other" in f.message for f in findings)


class TestMultiLineSignatures:
    def test_waiver_above_multi_line_def_covers_it(self):
        findings = analyze_source(
            _source(
                """
                # repro: allow[API003] reason=harness shim, params documented in the runbook
                def handler(
                    event,
                    context,
                    retries,
                ):
                    return event
                """
            ),
            path="src/mod.py",
            select=["API003"],
        )
        assert findings == []

    def test_waiver_on_the_def_line_itself_covers_it(self):
        findings = analyze_source(
            _source(
                """
                def handler(  # repro: allow[API003] reason=harness shim
                    event,
                    context,
                ):
                    return event
                """
            ),
            path="src/mod.py",
            select=["API003"],
        )
        assert findings == []


class TestFamilyWaivers:
    _NOISE = """
        import time

        import numpy as np


        def noise() -> float:
            {waiver}
            return float(np.random.default_rng().random()) + time.time()
    """

    def _findings(self, waiver):
        return analyze_source(
            _source(self._NOISE.format(waiver=waiver)), path="src/mypkg/noise.py"
        )

    def test_family_waiver_covers_every_rule_of_the_family(self):
        assert [f.rule for f in self._findings("")] == ["DET001", "DET003"]
        waived = self._findings("# repro: allow[DET] reason=exploratory noise source")
        assert waived == []

    def test_family_waiver_does_not_leak_across_families(self):
        findings = self._findings("# repro: allow[NUM] reason=wrong family on purpose")
        assert [f.rule for f in findings] == ["DET001", "DET003"]
