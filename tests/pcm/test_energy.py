"""Tests for the Table I energy model and the SLC energy model."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.pcm.energy import DEFAULT_MLC_ENERGY, MLCEnergyModel, SLCEnergyModel


class TestMLCTransitionStructure:
    """The structural content of Table I."""

    def test_diagonal_is_free(self):
        model = MLCEnergyModel()
        for symbol in range(4):
            assert model.transition_energy(symbol, symbol) == model.same_state_energy_pj

    def test_intermediate_targets_are_high(self):
        model = MLCEnergyModel()
        for old in range(4):
            for new in (0b01, 0b11):
                if old != new:
                    assert model.transition_energy(old, new) == model.high_energy_pj

    def test_end_state_targets_are_low(self):
        model = MLCEnergyModel()
        for old in range(4):
            for new in (0b00, 0b10):
                if old != new:
                    assert model.transition_energy(old, new) == model.low_energy_pj

    def test_lut_matches_scalar(self):
        model = MLCEnergyModel()
        lut = model.lut()
        for old in range(4):
            for new in range(4):
                assert lut[old, new] == model.transition_energy(old, new)

    def test_invalid_symbol_rejected(self):
        with pytest.raises(ConfigurationError):
            MLCEnergyModel().transition_energy(4, 0)


class TestMLCValidation:
    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigurationError):
            MLCEnergyModel(low_energy_pj=-1.0)

    @pytest.mark.parametrize(
        "field", ["low_energy_pj", "high_energy_pj", "same_state_energy_pj", "aux_bit_energy_pj"]
    )
    @pytest.mark.parametrize("value", [-5.0, math.nan, math.inf])
    def test_non_finite_or_negative_energy_rejected(self, field, value):
        # Every field becomes a cost-table entry verbatim.
        with pytest.raises(ConfigurationError, match=field):
            MLCEnergyModel(**{field: value})

    def test_high_below_low_rejected(self):
        with pytest.raises(ConfigurationError):
            MLCEnergyModel(low_energy_pj=5.0, high_energy_pj=1.0)


class TestMLCAggregation:
    def test_symbols_energy_sum(self):
        model = MLCEnergyModel(low_energy_pj=1.0, high_energy_pj=10.0)
        old = np.array([0, 0, 0, 0])
        new = np.array([0, 1, 2, 3])  # same, high, low, high? (2 -> '10' low, 3 -> '11' high)
        expected = 0.0 + 10.0 + 1.0 + 10.0
        assert model.symbols_energy(old, new) == pytest.approx(expected)

    def test_symbols_energy_shape_mismatch(self):
        model = MLCEnergyModel()
        with pytest.raises(ConfigurationError):
            model.symbols_energy(np.zeros(3), np.zeros(4))

    def test_word_energy_matches_symbols(self, rng):
        model = MLCEnergyModel()
        old_word = int(rng.integers(0, 1 << 63))
        new_word = int(rng.integers(0, 1 << 63))
        from repro.utils.bitops import split_symbols

        by_symbols = model.symbols_energy(
            np.array(split_symbols(old_word, 64)), np.array(split_symbols(new_word, 64))
        )
        assert model.word_energy(old_word, new_word) == pytest.approx(by_symbols)

    def test_identical_word_costs_nothing(self):
        model = MLCEnergyModel()
        assert model.word_energy(0xABCDEF, 0xABCDEF) == 0.0

    def test_aux_energy_counts_changed_bits(self):
        model = MLCEnergyModel(aux_bit_energy_pj=3.0)
        assert model.aux_energy(0b0000, 0b1010) == pytest.approx(6.0)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_energy_non_negative(self, new_word):
        assert DEFAULT_MLC_ENERGY.word_energy(0, new_word) >= 0.0


class TestSLCEnergy:
    def test_unchanged_bit_is_free(self):
        model = SLCEnergyModel()
        assert model.bit_energy(1, 1) == 0.0
        assert model.bit_energy(0, 0) == 0.0

    def test_set_and_reset(self):
        model = SLCEnergyModel(set_energy_pj=1.5, reset_energy_pj=2.5)
        assert model.bit_energy(0, 1) == 1.5
        assert model.bit_energy(1, 0) == 2.5

    def test_invalid_bit_rejected(self):
        with pytest.raises(ConfigurationError):
            SLCEnergyModel().bit_energy(2, 0)

    def test_word_energy(self):
        model = SLCEnergyModel(set_energy_pj=1.0, reset_energy_pj=2.0)
        # 0b0011 -> 0b0101: bit0 1->1 (free), bit1 1->0 (reset), bit2 0->1 (set), bit3 0->0
        assert model.word_energy(0b0011, 0b0101, word_bits=4) == pytest.approx(3.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigurationError):
            SLCEnergyModel(set_energy_pj=-0.5)

    @pytest.mark.parametrize("field", ["set_energy_pj", "reset_energy_pj", "aux_bit_energy_pj"])
    @pytest.mark.parametrize("value", [-5.0, math.nan, math.inf])
    def test_non_finite_or_negative_energy_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SLCEnergyModel(**{field: value})

    def test_aux_energy(self):
        model = SLCEnergyModel(aux_bit_energy_pj=2.0)
        assert model.aux_energy(0b01, 0b10) == pytest.approx(4.0)
