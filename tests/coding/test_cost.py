"""Tests for the cost functions."""

import math

import numpy as np
import pytest

from repro.coding.base import WordContext
from repro.coding.cost import (
    BitChangeCost,
    CellChangeCost,
    EnergyCost,
    LexicographicCost,
    OnesCost,
    SawCost,
    energy_then_saw,
    saw_then_energy,
)
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology
from repro.pcm.energy import MLCEnergyModel


def _context(old, stuck=None, bits_per_cell=2, old_aux=0):
    return WordContext(
        old_cells=np.array(old, dtype=np.uint8),
        stuck_mask=None if stuck is None else np.array(stuck, dtype=bool),
        bits_per_cell=bits_per_cell,
        old_aux=old_aux,
    )


class TestOnesCost:
    def test_counts_ones_in_cells(self):
        cost = OnesCost()
        context = _context([0, 0, 0, 0])
        new = np.array([0b00, 0b01, 0b10, 0b11], dtype=np.uint8)
        assert cost.cell_costs(new, context).tolist() == [0, 1, 1, 2]

    def test_word_cost_sums(self):
        cost = OnesCost()
        context = _context([0] * 4)
        assert cost.word_cost(np.array([3, 3, 0, 1]), context) == 5

    def test_aux_cost_is_hamming_weight(self):
        assert OnesCost().aux_cost(0b1011, 0, 4) == 3


class TestBitChangeCost:
    def test_counts_differing_bits(self):
        cost = BitChangeCost()
        context = _context([0b00, 0b01, 0b11, 0b10])
        new = np.array([0b11, 0b01, 0b00, 0b10], dtype=np.uint8)
        assert cost.cell_costs(new, context).tolist() == [2, 0, 2, 0]

    def test_aux_cost_counts_changes(self):
        assert BitChangeCost().aux_cost(0b1100, 0b1010, 4) == 2

    def test_matrix_shape(self):
        cost = BitChangeCost()
        context = _context([0] * 8)
        matrix = np.zeros((5, 8), dtype=np.uint8)
        assert cost.cell_costs_matrix(matrix, context).shape == (5, 8)


class TestCellChangeCost:
    def test_counts_changed_cells(self):
        cost = CellChangeCost()
        context = _context([1, 1, 1, 1])
        new = np.array([1, 2, 3, 1], dtype=np.uint8)
        assert cost.cell_costs(new, context).sum() == 2


class TestEnergyCost:
    def test_uses_mlc_lut(self):
        model = MLCEnergyModel(low_energy_pj=1.0, high_energy_pj=10.0)
        cost = EnergyCost(CellTechnology.MLC, mlc_model=model)
        context = _context([0, 0, 0, 0])
        new = np.array([0, 1, 2, 3], dtype=np.uint8)
        assert cost.cell_costs(new, context).tolist() == [0.0, 10.0, 1.0, 10.0]

    def test_technology_mismatch_rejected(self):
        cost = EnergyCost(CellTechnology.MLC)
        context = _context([0, 1, 0, 1], bits_per_cell=1)
        with pytest.raises(ConfigurationError):
            cost.cell_costs(np.zeros(4, dtype=np.uint8), context)

    def test_slc_energy(self):
        cost = EnergyCost(CellTechnology.SLC)
        context = _context([0, 1, 0, 1], bits_per_cell=1)
        costs = cost.cell_costs(np.array([1, 0, 0, 1], dtype=np.uint8), context)
        assert costs[0] > 0 and costs[1] > 0 and costs[2] == 0 and costs[3] == 0

    def test_aux_cost_uses_aux_bit_energy(self):
        model = MLCEnergyModel(aux_bit_energy_pj=4.0)
        cost = EnergyCost(CellTechnology.MLC, mlc_model=model)
        assert cost.aux_cost(0b11, 0b00, 2) == pytest.approx(8.0)


class TestSawCost:
    def test_zero_without_fault_info(self):
        cost = SawCost()
        context = _context([0, 1, 2, 3])
        assert cost.cell_costs(np.array([3, 2, 1, 0], dtype=np.uint8), context).sum() == 0

    def test_counts_mismatched_stuck_cells(self):
        cost = SawCost()
        context = _context([0, 1, 2, 3], stuck=[True, True, False, False])
        new = np.array([0, 2, 0, 0], dtype=np.uint8)
        # cell0 stuck at 0, intended 0 -> ok; cell1 stuck at 1, intended 2 -> SAW
        assert cost.cell_costs(new, context).tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_aux_cost_zero(self):
        assert SawCost().aux_cost(0b111, 0, 3) == 0.0


class TestLexicographic:
    def test_primary_dominates(self):
        combined = LexicographicCost(SawCost(), OnesCost(), scale=1000.0)
        context = _context([0, 0], stuck=[True, False])
        saw_free = np.array([0, 3], dtype=np.uint8)      # 2 ones, no SAW
        saw_bad = np.array([1, 0], dtype=np.uint8)       # 1 one, but 1 SAW
        assert combined.word_cost(saw_free, context) < combined.word_cost(saw_bad, context)

    def test_secondary_breaks_ties(self):
        combined = LexicographicCost(SawCost(), OnesCost(), scale=1000.0)
        context = _context([0, 0], stuck=[False, False])
        fewer_ones = np.array([0, 1], dtype=np.uint8)
        more_ones = np.array([3, 3], dtype=np.uint8)
        assert combined.word_cost(fewer_ones, context) < combined.word_cost(more_ones, context)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_scale(self, scale):
        with pytest.raises(ConfigurationError):
            LexicographicCost(SawCost(), OnesCost(), scale=scale)

    def test_name_combines(self):
        assert saw_then_energy().name == "saw>energy"
        assert energy_then_saw().name == "energy>saw"

    def test_aux_cost_combines(self):
        combined = LexicographicCost(BitChangeCost(), OnesCost(), scale=10.0)
        # bit changes 0b11 vs 0b00 -> 2, ones of 0b11 -> 2: 2*10 + 2
        assert combined.aux_cost(0b11, 0b00, 2) == pytest.approx(22.0)


#: Every builtin cost with each ``bits_per_cell`` it models.
_BUILTIN_TABLES = [
    *[
        (cost, bits)
        for cost in (OnesCost(), BitChangeCost(), CellChangeCost(), SawCost())
        for bits in (1, 2)
    ],
    *[
        (make(technology), technology.bits_per_cell)
        for make in (EnergyCost, saw_then_energy, energy_then_saw)
        for technology in (CellTechnology.SLC, CellTechnology.MLC)
    ],
]


class TestCellTable:
    @pytest.mark.parametrize(
        "cost,bits_per_cell", _BUILTIN_TABLES, ids=[f"{c.name}-{b}" for c, b in _BUILTIN_TABLES]
    )
    def test_shape_is_stuck_old_new(self, cost, bits_per_cell):
        levels = 2**bits_per_cell
        assert np.shape(cost.cell_table(bits_per_cell)) == (2, levels, levels)

    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    def test_energy_rejects_other_technology(self, technology):
        other = 3 - technology.bits_per_cell
        for cost in (
            EnergyCost(technology),
            saw_then_energy(technology),
            energy_then_saw(technology),
        ):
            with pytest.raises(ConfigurationError):
                cost.cell_table(other)

    @pytest.mark.parametrize("entry", [0.5, math.inf, -math.inf, math.nan])
    def test_non_integer_entries_rejected_with_a_rescale_hint(self, entry):
        class OddCost(OnesCost):
            def cell_table(self, bits_per_cell):
                table = np.zeros((2, 4, 4))
                table[1, 2, 3] = entry  # only a stuck cell ever reads it
                return table

        with pytest.raises(ConfigurationError, match="finite integers.*rescale"):
            OddCost().cell_costs(np.zeros(4, dtype=np.uint8), _context([0] * 4))

    def test_wrong_table_shape_rejected(self):
        class FlatCost(OnesCost):
            def cell_table(self, bits_per_cell):
                return np.zeros((4, 4))

        with pytest.raises(ConfigurationError, match="expected"):
            FlatCost().cell_costs(np.zeros(4, dtype=np.uint8), _context([0] * 4))
