"""Tests for the Table I energy model and the SLC energy model."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.pcm.energy import DEFAULT_MLC_ENERGY, MAX_ENERGY_PJ, MLCEnergyModel, SLCEnergyModel
from repro.utils.bitops import split_symbols


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

    def test_lut_matches_scalar_in_fj(self):
        model = MLCEnergyModel(low_energy_pj=1.3, high_energy_pj=13.7, same_state_energy_pj=0.1)
        lut = model.lut()
        assert lut.dtype == np.int64
        for old in range(4):
            for new in range(4):
                assert lut[old, new] / 1000 == model.transition_energy(old, new)

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


@pytest.mark.parametrize(
    "model, field",
    [
        (MLCEnergyModel, "low_energy_pj"),
        (MLCEnergyModel, "high_energy_pj"),
        (MLCEnergyModel, "same_state_energy_pj"),
        (MLCEnergyModel, "aux_bit_energy_pj"),
        (SLCEnergyModel, "set_energy_pj"),
        (SLCEnergyModel, "reset_energy_pj"),
        (SLCEnergyModel, "aux_bit_energy_pj"),
    ],
)
class TestWholeFemtojoules:
    """Accounting charges int64 fJ, so a model must hold whole fJ."""

    @pytest.mark.parametrize("value", [1.0001, 0.0005, 2.5e-4])
    def test_sub_fj_energy_rejected(self, model, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be a whole number of fJ"):
            model(**{field: value})

    def test_energy_past_int64_bound_rejected(self, model, field):
        with pytest.raises(ConfigurationError, match=field):
            model(**{field: MAX_ENERGY_PJ * 2})

    @pytest.mark.parametrize("value", [2.001, 13.7])
    def test_whole_fj_energy_accepted(self, model, field, value):
        instance = model(**{field: value})
        charges = set(instance.lut().ravel().tolist()) | {instance.aux_bit_energy_fj}
        assert round(value * 1000) in charges


class TestMLCAggregation:
    def test_lut_gather_sum(self):
        model = MLCEnergyModel(low_energy_pj=1.0, high_energy_pj=10.0)
        old = np.array([0, 0, 0, 0])
        new = np.array([0, 1, 2, 3])  # same, high, low, high (2 -> '10' low, 3 -> '11' high)
        assert model.lut()[old, new].sum() == 0 + 10_000 + 1_000 + 10_000

    @pytest.mark.parametrize(
        "model", [MLCEnergyModel(), MLCEnergyModel(low_energy_pj=1.3, high_energy_pj=13.7)]
    )
    def test_word_energy_matches_lut(self, rng, model):
        old_word = int(rng.integers(0, 1 << 63))
        new_word = int(rng.integers(0, 1 << 63))
        old = np.array(split_symbols(old_word, 64))
        new = np.array(split_symbols(new_word, 64))
        assert model.word_energy(old_word, new_word) == model.lut()[old, new].sum() / 1000

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

    def test_lut_matches_bit_energy_in_fj(self):
        model = SLCEnergyModel(set_energy_pj=1.3, reset_energy_pj=2.9)
        lut = model.lut()
        assert lut.dtype == np.int64
        assert lut.tolist() == [[0, 1300], [2900, 0]]
        for old in (0, 1):
            for new in (0, 1):
                assert lut[old, new] / 1000 == model.bit_energy(old, new)

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
