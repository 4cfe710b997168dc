"""OBS rule fixtures: one violating, one clean, one waived per rule."""

import textwrap

from repro.analysis import analyze_source


def codes(findings):
    return [f.rule for f in findings]


def run(source, path="src/repro/example.py"):
    findings = analyze_source(textwrap.dedent(source), path=path)
    return [f for f in findings if f.rule.startswith("OBS")]


class TestOBS001DirectStopwatch:
    def test_violating_perf_counter(self):
        findings = run(
            """
            import time

            start = time.perf_counter()
            """
        )
        assert codes(findings) == ["OBS001"]
        assert "repro.obs" in findings[0].message

    def test_violating_monotonic(self):
        findings = run("import time\nstamp = time.monotonic()\n")
        assert codes(findings) == ["OBS001"]

    def test_violating_ns_variants(self):
        findings = run(
            """
            import time

            a = time.perf_counter_ns()
            b = time.monotonic_ns()
            c = time.process_time()
            """
        )
        assert codes(findings) == ["OBS001", "OBS001", "OBS001"]

    def test_clean_obs_monotonic(self):
        findings = run(
            """
            from repro import obs

            start = obs.monotonic()
            """
        )
        assert findings == []

    def test_clean_time_time_is_not_obs001(self):
        # A calendar clock is not a stopwatch (benchmarks stamp their
        # records with time.time()).
        findings = run("import time\nstamp = time.time()\n")
        assert findings == []

    def test_waived_with_reason(self):
        findings = run(
            """
            import time

            start = time.perf_counter()  # repro: allow[OBS001] reason=standalone reporting path outside the telemetry layer
            """
        )
        assert findings == []

    def test_sanctioned_clock_module_is_waived_in_tree(self):
        # The one wrapper the layer is built on carries its own inline
        # waiver; the analyzer over the real file must stay clean.
        from pathlib import Path

        import repro.obs.clock as clock

        source = Path(clock.__file__).read_text(encoding="utf-8")
        findings = analyze_source(source, path="src/repro/obs/clock.py")
        assert findings == []
