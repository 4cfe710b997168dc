"""Tests for the decorator-driven encoder plugin registry."""

import pytest

from repro.coding.base import Encoder
from repro.coding.cost import EnergyCost
from repro.coding.fnw import FNWEncoder
from repro.coding.registry import (
    available_encoders,
    encoder_plugins,
    get_encoder_plugin,
    make_encoder,
    register_encoder,
    unregister_encoder,
)
from repro.coding.unencoded import UnencodedEncoder
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology


class TestRegistry:
    def test_all_names_listed(self):
        names = available_encoders()
        for expected in ["unencoded", "dbi", "fnw", "dbi/fnw", "flipcy", "bcc", "rcc", "vcc", "vcc-stored"]:
            assert expected in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_encoder("nonexistent")

    def test_case_insensitive(self):
        assert make_encoder("RCC", num_cosets=32).name == "rcc"

    @pytest.mark.parametrize("name", ["unencoded", "dbi", "fnw", "dbi/fnw", "flipcy", "bcc", "rcc", "vcc", "vcc-stored"])
    def test_every_encoder_roundtrips(self, name, rng):
        encoder = make_encoder(name, num_cosets=32)
        from repro.coding.base import WordContext

        data = int(rng.integers(0, 1 << 63))
        context = WordContext.from_word(int(rng.integers(0, 1 << 63)), 64, 2)
        encoded = encoder.encode(data, context)
        assert encoder.decode(encoded.codeword, encoded.aux) == data

    @pytest.mark.parametrize("name", available_encoders())
    @pytest.mark.parametrize(
        "word_bits, technology", [(65, CellTechnology.SLC), (128, CellTechnology.MLC)]
    )
    def test_words_over_64_bits_rejected(self, name, word_bits, technology):
        with pytest.raises(ConfigurationError, match="between 1 and 64"):
            make_encoder(name, word_bits=word_bits, num_cosets=16, technology=technology)

    def test_cost_function_passed_through(self):
        cost = EnergyCost(CellTechnology.MLC)
        encoder = make_encoder("rcc", num_cosets=32, cost_function=cost)
        assert encoder.cost_function is cost

    def test_vcc_uses_requested_coset_count(self):
        encoder = make_encoder("vcc", num_cosets=128)
        assert encoder.num_cosets == 128

    def test_vcc_stored_uses_full_word(self):
        from repro.core.config import EncodeRegion

        encoder = make_encoder("vcc-stored", num_cosets=256)
        assert encoder.config.encode_region is EncodeRegion.FULL_WORD

    def test_vcc_generated_uses_right_plane(self):
        from repro.core.config import EncodeRegion

        encoder = make_encoder("vcc", num_cosets=256)
        assert encoder.config.encode_region is EncodeRegion.RIGHT_PLANE

    def test_aux_budget_matches_secded(self):
        # Both RCC and VCC with 256 candidates use exactly 8 auxiliary bits
        # per 64-bit word, matching the SECDED capacity budget of the paper.
        assert make_encoder("rcc", num_cosets=256).aux_bits == 8
        assert make_encoder("vcc", num_cosets=256).aux_bits == 8
        assert make_encoder("vcc-stored", num_cosets=256).aux_bits == 8


class TestPluginSystem:
    def test_plugins_expose_metadata(self):
        plugins = {plugin.name: plugin for plugin in encoder_plugins()}
        assert set(plugins) == {
            "unencoded", "dbi", "fnw", "flipcy", "bcc", "rcc", "vcc", "vcc-stored",
        }
        assert "dbi/fnw" in plugins["fnw"].aliases
        for plugin in plugins.values():
            assert plugin.description

    def test_alias_resolves_to_canonical_plugin(self):
        assert get_encoder_plugin("dbi/fnw") is get_encoder_plugin("fnw")
        assert get_encoder_plugin("FNW") is get_encoder_plugin("fnw")

    def test_register_custom_encoder_via_decorator(self):
        @register_encoder(
            "test-custom",
            aliases=("test-alias",),
            description="test plugin",
            params=("word_bits", "technology", "cost_function"),
        )
        class CustomEncoder(UnencodedEncoder):
            name = "test-custom"

        try:
            assert "test-custom" in available_encoders()
            assert "test-alias" in available_encoders()
            encoder = make_encoder("test-alias", word_bits=32)
            assert isinstance(encoder, CustomEncoder)
            assert encoder.word_bits == 32
        finally:
            unregister_encoder("test-custom")
        assert "test-custom" not in available_encoders()
        assert "test-alias" not in available_encoders()

    def test_register_custom_factory_function(self):
        @register_encoder("test-factory", description="factory plugin")
        def build(word_bits, num_cosets, technology, cost_function, seed):
            return UnencodedEncoder(word_bits, technology, cost_function)

        try:
            encoder = make_encoder("test-factory")
            assert isinstance(encoder, UnencodedEncoder)
        finally:
            unregister_encoder("test-factory")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_encoder("unencoded")(UnencodedEncoder)

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ConfigurationError):
            register_encoder("test-dup", aliases=("dbi/fnw",))(UnencodedEncoder)
        assert "test-dup" not in available_encoders()

    def test_unknown_shared_param_rejected(self):
        with pytest.raises(ConfigurationError):
            register_encoder("test-bad-param", params=("not_a_param",))

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            unregister_encoder("never-registered")


def _encoder_class(base, **methods):
    return type("ToyEncoder", (base,), dict(methods))


class TestRegistrationChecks:
    """A plugin class that breaks the line-API contract fails when the
    decorator runs, and nothing is registered."""

    @pytest.mark.parametrize(
        "cls, message",
        [
            pytest.param(
                _encoder_class(Encoder, encode_line=lambda self, words, context: None),
                "must override encode_lines",
                id="encoder-base-without-encode_lines",
            ),
            pytest.param(
                _encoder_class(FNWEncoder, encode_line=lambda self, data, ctx: None),
                r"encode_line\(data, ctx\)",
                id="encode_line-renamed",
            ),
            pytest.param(
                _encoder_class(Encoder, encode_lines=lambda self, words, contexts: None),
                r"encode_lines\(words, contexts\)",
                id="encode_lines-renamed",
            ),
            pytest.param(
                _encoder_class(FNWEncoder, decode_line=lambda self, words: None),
                r"decode_line\(words\)",
                id="decode_line-dropped-param",
            ),
        ],
    )
    def test_contract_breach_rejected(self, cls, message):
        with pytest.raises(ConfigurationError, match=message):
            register_encoder("test-breach")(cls)
        assert "test-breach" not in available_encoders()

    def test_encoder_base_with_encode_lines_accepted(self):
        register_encoder("test-batched")(
            _encoder_class(Encoder, encode_lines=lambda self, words, batch: None)
        )
        unregister_encoder("test-batched")

    @pytest.mark.parametrize(
        "cls, message",
        [
            pytest.param(
                _encoder_class(
                    FNWEncoder, encode_line=lambda self, words, context, extra=None: None
                ),
                r"encode_line\(words, context, extra\)",
                id="encode_line-extra-positional",
            ),
            pytest.param(
                _encoder_class(FNWEncoder, encode_lines=lambda self, words, batch, /, n=1: None),
                r"encode_lines\(words, batch, n\)",
                id="encode_lines-extra-positional",
            ),
            pytest.param(
                _encoder_class(
                    _encoder_class(FNWEncoder, decode_line=lambda self, words, aux: None),
                    encode_line=lambda self, words, context: None,
                ),
                r"decode_line\(words, aux\)",
                id="rename-inherited-from-unregistered-base",
            ),
        ],
    )
    def test_more_contract_breaches_rejected(self, cls, message):
        with pytest.raises(ConfigurationError, match=message):
            register_encoder("test-breach")(cls)
        assert "test-breach" not in available_encoders()

    def test_rejected_class_registers_no_alias(self):
        cls = _encoder_class(FNWEncoder, decode_line=lambda self, words: None)
        with pytest.raises(ConfigurationError):
            register_encoder("test-breach", aliases=("test-breach-alias",))(cls)
        assert {"test-breach", "test-breach-alias"}.isdisjoint(available_encoders())

    @pytest.mark.parametrize(
        "cls",
        [
            pytest.param(_encoder_class(FNWEncoder), id="concrete-base-inherits-batch-path"),
            pytest.param(
                _encoder_class(
                    FNWEncoder, encode_line=lambda self, words, context, *, trace=None: None
                ),
                id="keyword-only-extra",
            ),
            pytest.param(
                _encoder_class(FNWEncoder, decode_line=lambda self, codewords, auxes, /: None),
                id="positional-only-same-names",
            ),
        ],
    )
    def test_compatible_class_accepted(self, cls):
        register_encoder("test-compatible")(cls)
        try:
            assert "test-compatible" in available_encoders()
        finally:
            unregister_encoder("test-compatible")

    def test_factory_function_is_not_checked(self):
        def factory(word_bits, num_cosets, technology, cost_function, seed):
            return UnencodedEncoder(word_bits)

        register_encoder("test-factory")(factory)
        try:
            assert "test-factory" in available_encoders()
        finally:
            unregister_encoder("test-factory")

    @pytest.mark.parametrize("name", sorted(p.name for p in encoder_plugins()))
    def test_builtin_plugin_passes_the_checks(self, name):
        """Every builtin factory re-registers cleanly under a fresh name."""
        plugin = next(p for p in encoder_plugins() if p.name == name)
        register_encoder(f"test-copy-{name}", params=plugin.params)(plugin.factory)
        unregister_encoder(f"test-copy-{name}")
