"""Tests for the PCM array model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MemoryModelError
from repro.pcm.array import PCMArray, cells_to_word, word_to_cells
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.pcm.faultmap import FaultMap


class TestWordCellConversion:
    def test_word_to_cells_mlc(self):
        cells = word_to_cells(0b11100100, 8, 2)
        assert cells.tolist() == [3, 2, 1, 0]

    def test_word_to_cells_slc(self):
        cells = word_to_cells(0b1010, 4, 1)
        assert cells.tolist() == [1, 0, 1, 0]

    def test_roundtrip(self):
        word = 0x0123456789ABCDEF
        assert cells_to_word(word_to_cells(word, 64, 2), 2) == word

    def test_oversized_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            cells_to_word([4], 2)


class TestBasicReadWrite:
    def test_geometry(self):
        array = PCMArray(rows=8, row_bits=512, technology=CellTechnology.MLC)
        assert array.cells_per_row == 256
        assert array.words_per_row == 8
        assert array.cells_per_word == 32

    @pytest.mark.parametrize(
        "row_bits, word_bits, technology",
        [(520, 65, CellTechnology.SLC), (512, 128, CellTechnology.MLC)],
    )
    def test_words_over_64_bits_rejected(self, row_bits, word_bits, technology):
        with pytest.raises(ConfigurationError, match="between 1 and 64"):
            PCMArray(rows=2, row_bits=row_bits, technology=technology, word_bits=word_bits)

    def test_write_then_read_row(self):
        array = PCMArray(rows=4, row_bits=64, technology=CellTechnology.MLC, seed=1)
        intended = np.arange(32) % 4
        result = array.write_row(2, intended)
        assert (array.read_row(2) == intended).all()
        assert result.saw_count == 0

    def test_write_word_leaves_rest_of_row(self):
        array = PCMArray(rows=2, row_bits=128, technology=CellTechnology.MLC, seed=2)
        before = array.read_row(0)
        array.write_word(0, 1, 0x0123456789ABCDEF)
        after = array.read_row(0)
        assert (after[:32] == before[:32]).all()
        assert cells_to_word(after[32:], 2) == 0x0123456789ABCDEF

    @pytest.mark.parametrize("word_bits", [32, 64])
    @pytest.mark.parametrize("offset", [-1, 0, 1 << 40])
    def test_write_word_out_of_range_rejected(self, word_bits, offset):
        """A negative word or one of 2**word_bits or more is refused, not truncated."""
        array = PCMArray(rows=2, row_bits=512, word_bits=word_bits, seed=3)
        word = -1 if offset < 0 else (1 << word_bits) + offset
        before = array.read_row(0)
        with pytest.raises(MemoryModelError, match=f"does not fit in {word_bits} bits"):
            array.write_word(0, 0, word)
        assert (array.read_row(0) == before).all()
        array.write_word(0, 0, (1 << word_bits) - 1)
        assert array.read_word(0, 0) == (1 << word_bits) - 1

    def test_read_word_matches_row_slice(self):
        array = PCMArray(rows=2, row_bits=128, seed=3)
        row = array.read_row(1)
        word = array.read_word(1, 0)
        assert word == cells_to_word(row[:32], 2)

    def test_changed_mask_counts(self):
        array = PCMArray(rows=1, row_bits=64, seed=4)
        old = array.read_row(0)
        new = (old + 1) % 4
        result = array.write_row(0, new)
        assert result.cells_changed == 32

    def test_initial_contents_deterministic(self):
        a = PCMArray(rows=4, row_bits=64, seed=7)
        b = PCMArray(rows=4, row_bits=64, seed=7)
        assert (a.read_row(2) == b.read_row(2)).all()

    def test_out_of_range_row(self):
        array = PCMArray(rows=2, row_bits=64)
        with pytest.raises(MemoryModelError):
            array.read_row(2)

    def test_out_of_range_word(self):
        array = PCMArray(rows=2, row_bits=64)
        with pytest.raises(MemoryModelError):
            array.read_word(0, 1)

    def test_bad_cell_value_rejected(self):
        array = PCMArray(rows=1, row_bits=64)
        with pytest.raises(MemoryModelError):
            array.write_row(0, np.full(32, 5, dtype=np.uint8))

    def test_wrong_length_rejected(self):
        array = PCMArray(rows=1, row_bits=64)
        with pytest.raises(MemoryModelError):
            array.write_row(0, np.zeros(16, dtype=np.uint8))


class TestStuckCells:
    def _array_with_faults(self):
        fault_map = FaultMap(rows=8, cells_per_row=32, fault_rate=0.2, seed=5)
        array = PCMArray(
            rows=8, row_bits=64, technology=CellTechnology.MLC, fault_map=fault_map, seed=5
        )
        return array, fault_map

    def test_initial_values_match_stuck_values(self):
        array, fault_map = self._array_with_faults()
        for row in fault_map.faulty_rows():
            faults = fault_map.row_faults(row)
            row_values = array.read_row(row)
            assert (row_values[faults.positions] == faults.stuck_values).all()

    def test_stuck_cells_do_not_change(self):
        array, fault_map = self._array_with_faults()
        row = next(iter(fault_map.faulty_rows()))
        faults = fault_map.row_faults(row)
        intended = (array.read_row(row) + 1) % 4
        array.write_row(row, intended)
        after = array.read_row(row)
        assert (after[faults.positions] == faults.stuck_values).all()

    def test_saw_mask_reports_mismatches(self):
        array, fault_map = self._array_with_faults()
        row = next(iter(fault_map.faulty_rows()))
        faults = fault_map.row_faults(row)
        intended = array.read_row(row).copy()
        intended[faults.positions[0]] = (faults.stuck_values[0] + 1) % 4
        result = array.write_row(row, intended)
        assert result.saw_count == 1

    def test_matching_write_has_no_saw(self):
        array, fault_map = self._array_with_faults()
        row = next(iter(fault_map.faulty_rows()))
        intended = array.read_row(row)
        result = array.write_row(row, intended)
        assert result.saw_count == 0

    def test_geometry_mismatch_rejected(self):
        fault_map = FaultMap(rows=4, cells_per_row=64, fault_rate=0.1, seed=1)
        with pytest.raises(MemoryModelError):
            PCMArray(rows=4, row_bits=64, fault_map=fault_map)

    def test_stuck_cell_count(self):
        array, fault_map = self._array_with_faults()
        assert array.stuck_cell_count() == fault_map.total_faults


class TestWear:
    def test_wear_accumulates_only_on_changes(self):
        endurance = EnduranceModel(mean_writes=1000, coefficient_of_variation=0.0)
        array = PCMArray(rows=1, row_bits=64, endurance_model=endurance, seed=6)
        first = array.read_row(0)
        array.write_row(0, first)  # no change, no wear
        assert array.wear_of_row(0).sum() == 0
        array.write_row(0, (first + 1) % 4)
        assert array.wear_of_row(0).sum() == 32

    def test_cells_become_stuck_after_endurance(self):
        endurance = EnduranceModel(mean_writes=3, coefficient_of_variation=0.0)
        array = PCMArray(rows=1, row_bits=64, endurance_model=endurance, seed=7)
        value = 0
        for _ in range(4):
            value = (value + 1) % 4
            intended = np.full(32, value, dtype=np.uint8)
            array.write_row(0, intended)
        assert array.stuck_cell_count() == 32

    def test_newly_stuck_reported(self):
        endurance = EnduranceModel(mean_writes=1, coefficient_of_variation=0.0)
        array = PCMArray(rows=1, row_bits=64, endurance_model=endurance, seed=8)
        first = array.read_row(0)
        result = array.write_row(0, (first + 1) % 4)
        assert result.newly_stuck == 32

    def test_stuck_cells_stop_wearing(self):
        endurance = EnduranceModel(mean_writes=1, coefficient_of_variation=0.0)
        array = PCMArray(rows=1, row_bits=64, endurance_model=endurance, seed=9)
        first = array.read_row(0)
        array.write_row(0, (first + 1) % 4)
        wear_after_first = array.wear_of_row(0).copy()
        array.write_row(0, (first + 2) % 4)
        assert (array.wear_of_row(0) == wear_after_first).all()

    def test_no_endurance_model_reports_zero_wear(self):
        array = PCMArray(rows=1, row_bits=64)
        assert array.wear_of_row(0).sum() == 0


class TestValidation:
    def test_row_bits_must_hold_words(self):
        with pytest.raises(ConfigurationError):
            PCMArray(rows=1, row_bits=100, word_bits=64)

    def test_word_bits_must_hold_cells(self):
        with pytest.raises(ConfigurationError):
            PCMArray(rows=1, row_bits=66, word_bits=33, technology=CellTechnology.MLC)
