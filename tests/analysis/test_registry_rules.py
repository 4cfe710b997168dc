"""REG rule fixtures: the encoder and task-kind registry contracts."""

import textwrap

from repro.analysis import analyze_source


def codes(findings):
    return [f.rule for f in findings]


def run(source, path="src/repro/example.py", **kwargs):
    # Scope to the family under test so fixture scaffolding (unannotated
    # defs, etc.) does not trip unrelated rules.
    kwargs.setdefault("select", ["REG"])
    return analyze_source(textwrap.dedent(source), path=path, **kwargs)


class TestREG001EncoderContract:
    def test_violating_missing_batch_overrides(self):
        findings = run(
            """
            from repro.coding.registry import register_encoder

            @register_encoder("toy")
            class ToyEncoder(Encoder):
                def encode_line(self, words, context):
                    return words
            """
        )
        assert codes(findings) == ["REG001"]
        assert "does not override encode_lines" in findings[0].message

    def test_violating_signature_drift(self):
        findings = run(
            """
            from repro.coding.registry import register_encoder

            @register_encoder("toy")
            class ToyEncoder(FNWEncoder):
                def encode_line(self, data, ctx):
                    return data
            """
        )
        assert codes(findings) == ["REG001"]
        assert "signature" in findings[0].message

    def test_clean_full_contract(self):
        findings = run(
            """
            from repro.coding.registry import register_encoder

            @register_encoder("toy")
            class ToyEncoder(Encoder):
                def encode_lines(self, words_matrix, contexts):
                    return words_matrix
            """
        )
        assert findings == []

    def test_clean_subclass_of_concrete_encoder_inherits_batch_paths(self):
        findings = run(
            """
            from repro.coding.registry import register_encoder

            @register_encoder("toy-dbi")
            class ToyDBIEncoder(FNWEncoder):
                pass
            """
        )
        assert findings == []

    def test_clean_unregistered_class_is_ignored(self):
        findings = run(
            """
            class Helper(Encoder):
                pass
            """
        )
        assert findings == []

    def test_waived(self):
        findings = run(
            """
            from repro.coding.registry import register_encoder

            @register_encoder("toy")
            class ToyEncoder(Encoder):  # repro: allow[REG001] reason=scalar-only pedagogy encoder, perf irrelevant
                def encode_line(self, words, context):
                    return words
            """
        )
        assert findings == []


class TestREG002TaskContract:
    def test_violating_non_literal_kind(self):
        findings = run(
            """
            from repro.campaign.tasks import register_task

            KIND = "fig9"

            @register_task(KIND)
            def run_fig9(params):
                return []
            """
        )
        assert codes(findings) == ["REG002"]
        assert "literal" in findings[0].message

    def test_violating_extra_params(self):
        findings = run(
            """
            from repro.campaign.tasks import register_task

            @register_task("fig9")
            def run_fig9(params, verbose=False):
                return []
            """
        )
        assert codes(findings) == ["REG002"]
        assert "exactly one" in findings[0].message

    def test_violating_bare_decoration(self):
        findings = run(
            """
            from repro.campaign.tasks import register_task

            @register_task
            def run_fig9(params):
                return []
            """
        )
        assert codes(findings) == ["REG002"]

    def test_clean_literal_kind_single_param(self):
        findings = run(
            """
            from repro.campaign.tasks import register_task

            @register_task("fig9", description="endurance sweep")
            def run_fig9(params):
                return []
            """
        )
        assert findings == []

    def test_waived(self):
        findings = run(
            """
            from repro.campaign.tasks import register_task

            @register_task("debug", description="scratch")
            def run_debug(params, extra=None):  # repro: allow[REG002] reason=local debugging shim, never content-addressed
                return []
            """
        )
        assert findings == []
