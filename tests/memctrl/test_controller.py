"""Tests for the memory-controller write/read pipeline."""

import numpy as np
import pytest

from repro.coding.cost import BitChangeCost, EnergyCost, saw_then_energy
from repro.coding.registry import make_encoder
from repro.errors import ConfigurationError
from repro.memctrl.config import ControllerConfig
from repro.memctrl.controller import MemoryController
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.pcm.faultmap import FaultMap


def _controller(encoder_name="unencoded", rows=16, fault_map=None, endurance=None,
                encrypt=True, cost=None, num_cosets=64, seed=0):
    cost = cost or BitChangeCost()
    encoder = make_encoder(encoder_name, num_cosets=num_cosets, cost_function=cost, seed=seed)
    array = PCMArray(
        rows=rows,
        row_bits=512,
        technology=CellTechnology.MLC,
        fault_map=fault_map,
        endurance_model=endurance,
        seed=seed,
    )
    return MemoryController(
        array=array,
        encoder=encoder,
        config=ControllerConfig(encrypt=encrypt),
    )


def _line(rng):
    return [int(rng.integers(0, 1 << 32)) << 32 | int(rng.integers(0, 1 << 32)) for _ in range(8)]


class TestConfigValidation:
    def test_line_word_geometry(self):
        config = ControllerConfig(line_bits=512, word_bits=64)
        assert config.words_per_line == 8

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(line_bits=500, word_bits=64)

    def test_mismatched_array_rejected(self):
        encoder = make_encoder("unencoded")
        array = PCMArray(rows=4, row_bits=256)
        with pytest.raises(ConfigurationError):
            MemoryController(array=array, encoder=encoder, config=ControllerConfig(line_bits=512))

    def test_mismatched_technology_rejected(self):
        encoder = make_encoder("unencoded", technology=CellTechnology.SLC)
        array = PCMArray(rows=4, row_bits=512, technology=CellTechnology.MLC)
        with pytest.raises(ConfigurationError):
            MemoryController(array=array, encoder=encoder)


class TestWriteReadRoundTrip:
    @pytest.mark.parametrize("encoder_name", ["unencoded", "dbi", "fnw", "flipcy", "rcc", "vcc", "vcc-stored"])
    def test_read_returns_written_plaintext(self, rng, encoder_name):
        controller = _controller(encoder_name)
        plaintext = _line(rng)
        controller.write_line(7, plaintext)
        assert controller.read_line(7) == plaintext

    def test_roundtrip_without_encryption(self, rng):
        controller = _controller("vcc", encrypt=False)
        plaintext = _line(rng)
        controller.write_line(3, plaintext)
        assert controller.read_line(3) == plaintext

    def test_rewrites_update_counter_and_still_decode(self, rng):
        controller = _controller("rcc")
        first, second = _line(rng), _line(rng)
        controller.write_line(5, first)
        controller.write_line(5, second)
        assert controller.read_line(5) == second
        assert controller.encryption.counter_for(5) == 2

    def test_wrong_word_count_rejected(self):
        controller = _controller()
        with pytest.raises(ConfigurationError):
            controller.write_line(0, [1, 2, 3])

    def test_negative_address_rejected(self, rng):
        controller = _controller()
        from repro.errors import MemoryModelError

        with pytest.raises(MemoryModelError):
            controller.write_line(-1, _line(rng))


class TestAccounting:
    def test_stats_accumulate(self, rng):
        controller = _controller()
        for address in range(4):
            controller.write_line(address, _line(rng))
        assert controller.stats.rows_written == 4
        assert controller.stats.words_written == 32
        assert controller.stats.total_energy_pj > 0.0

    def test_energy_matches_manual_computation(self, rng):
        controller = _controller("unencoded", encrypt=False)
        plaintext = _line(rng)
        row = controller.row_for_address(2)
        old = controller.array.read_row(row).copy()
        result = controller.write_line(2, plaintext)
        lut = controller.mlc_energy.lut()
        new = controller.array.read_row(row)
        # Unencoded, no faults: intended == stored.
        expected = lut[old.astype(int), new.astype(int)].sum()
        assert result.data_energy_fj == expected

    def test_encoded_write_spends_less_energy(self, rng):
        cost = EnergyCost(CellTechnology.MLC)
        plain = _controller("unencoded", cost=BitChangeCost(), seed=3)
        vcc = _controller("vcc", cost=cost, num_cosets=256, seed=3)
        for address in range(8):
            line = _line(rng)
            plain.write_line(address, line)
            vcc.write_line(address, line)
        assert vcc.stats.total_energy_pj < plain.stats.total_energy_pj

    def test_aux_energy_charged_for_coset_techniques(self, rng):
        controller = _controller("rcc")
        controller.write_line(0, _line(rng))
        assert controller.stats.aux_energy_pj > 0.0

    def test_unencoded_has_no_aux_energy(self, rng):
        controller = _controller("unencoded")
        controller.write_line(0, _line(rng))
        assert controller.stats.aux_energy_pj == 0.0


class TestFaultHandling:
    def test_saw_reported_with_faults(self, rng):
        fault_map = FaultMap(rows=16, cells_per_row=256, fault_rate=0.05, seed=2)
        controller = _controller("unencoded", fault_map=fault_map)
        total_saw = 0
        for address in range(16):
            result = controller.write_line(address, _line(rng))
            total_saw += result.saw_cells
        assert total_saw > 0
        assert controller.stats.saw_cells == total_saw

    def test_saw_aware_encoding_reduces_saw(self, rng):
        fault_map = FaultMap(rows=16, cells_per_row=256, fault_rate=0.02, seed=4)
        plain = _controller("unencoded", fault_map=fault_map, cost=saw_then_energy(), seed=5)
        vcc = _controller("vcc-stored", fault_map=fault_map, cost=saw_then_energy(),
                          num_cosets=256, seed=5)
        for address in range(16):
            line = _line(rng)
            plain.write_line(address, line)
            vcc.write_line(address, line)
        assert vcc.stats.saw_cells < plain.stats.saw_cells

    def test_fault_context_can_be_disabled(self, rng):
        fault_map = FaultMap(rows=16, cells_per_row=256, fault_rate=0.05, seed=6)
        encoder = make_encoder("vcc-stored", num_cosets=64, cost_function=saw_then_energy())
        array = PCMArray(rows=16, row_bits=512, fault_map=fault_map, seed=6)
        controller = MemoryController(array=array, encoder=encoder, use_fault_context=False)
        result = controller.write_line(0, _line(rng))
        assert result.saw_cells >= 0  # runs without fault knowledge

    def test_newly_stuck_counted_in_lifetime_mode(self, rng):
        endurance = EnduranceModel(mean_writes=2, coefficient_of_variation=0.0)
        controller = _controller("unencoded", endurance=endurance)
        newly_stuck = 0
        for _ in range(6):
            result = controller.write_line(0, _line(rng))
            newly_stuck += result.newly_stuck_cells
        assert newly_stuck > 0

    def test_saw_bits_per_word_length(self, rng):
        controller = _controller()
        result = controller.write_line(0, _line(rng))
        assert len(result.saw_bits_per_word) == 8
