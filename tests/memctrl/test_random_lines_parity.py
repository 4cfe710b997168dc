"""Bit-identity of the batched random-line driver against the scalar path.

The contract of
:meth:`repro.memctrl.controller.MemoryController.write_random_lines` is
that every per-write accounting value — and the controller state left
behind — equals what the scalar ``write_line`` loop over the identical
seeded random stream produces, for every registry encoder, both cell
technologies, with faults, wear, encryption, and wear leveling in play.
The scalar loop (:func:`repro.sim.harness.drive_random_lines_scalar`'s
body) is the oracle.
"""

import numpy as np
import pytest

from repro.coding.registry import available_encoders, make_encoder
from repro.errors import ConfigurationError
from repro.memctrl.controller import MemoryController
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.pcm.faultmap import FaultMap
from repro.pcm.wearlevel import StartGapWearLeveler
from repro.sim.harness import TechniqueSpec, build_controller, scalar_random_line_results
from repro.utils.rng import make_rng

ROWS = 16
LINES = 24
SEED = 9


def _controller(name, technology, seed=SEED):
    return build_controller(
        TechniqueSpec(encoder=name, cost="saw-then-energy", num_cosets=16),
        rows=ROWS,
        technology=technology,
        fault_map=FaultMap(
            rows=ROWS,
            cells_per_row=512 // technology.bits_per_cell,
            technology=technology,
            fault_rate=1e-2,
            seed=seed,
        ),
        endurance_model=EnduranceModel(mean_writes=30, coefficient_of_variation=0.2),
        seed=seed,
        encrypt=True,
    )


def _drive_scalar(controller, num_lines, seed=SEED, address_space=None):
    """The oracle loop: the harness's single-source scalar write_line loop."""
    return scalar_random_line_results(
        controller, num_lines, address_space=address_space, seed=seed
    )


def _drive_batched(controller, num_lines, seed=SEED, address_space=None):
    rng = make_rng(seed, "random-lines")
    return controller.write_random_lines(num_lines, rng, address_space=address_space)


def assert_parity(scalar_results, replay):
    assert replay.writes == len(scalar_results)
    for index, line in enumerate(scalar_results):
        assert line.address == replay.addresses[index]
        assert line.row_index == replay.row_indices[index]
        assert line.data_energy_fj == replay.data_energy_fj[index]
        assert line.aux_energy_fj == replay.aux_energy_fj[index]
        assert line.cells_changed == replay.cells_changed[index]
        assert line.bits_changed == replay.bits_changed[index]
        assert line.saw_cells == replay.saw_cells[index]
        assert list(line.saw_bits_per_word) == list(replay.saw_bits_per_word[index])
        assert line.newly_stuck_cells == replay.newly_stuck_cells[index]


class TestRandomLinesParity:
    @pytest.mark.parametrize("name", available_encoders())
    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    def test_registry_encoder_parity(self, name, technology):
        """Batched accounting is bit-identical to write_line for every encoder."""
        scalar = _drive_scalar(_controller(name, technology), LINES)
        replay = _drive_batched(_controller(name, technology), LINES)
        assert_parity(scalar, replay)

    @pytest.mark.parametrize("name", ["unencoded", "rcc"])
    def test_parity_without_encryption(self, name):
        def build():
            return build_controller(
                TechniqueSpec(encoder=name, cost="saw-then-energy", num_cosets=16),
                rows=ROWS,
                seed=3,
                encrypt=False,
            )

        scalar = _drive_scalar(build(), LINES)
        replay = _drive_batched(build(), LINES)
        assert_parity(scalar, replay)

    @pytest.mark.parametrize("fault_knowledge", ["oracle", "discovered", "none"])
    def test_parity_across_fault_knowledge_modes(self, fault_knowledge):
        def build():
            technology = CellTechnology.MLC
            array = PCMArray(
                rows=ROWS,
                row_bits=512,
                technology=technology,
                fault_map=FaultMap(
                    rows=ROWS, cells_per_row=256, technology=technology, fault_rate=1e-2, seed=5
                ),
                seed=5,
            )
            encoder = make_encoder("unencoded", word_bits=64, technology=technology)
            return MemoryController(
                array=array, encoder=encoder, fault_knowledge=fault_knowledge
            )

        scalar = _drive_scalar(build(), 3 * LINES)
        replay = _drive_batched(build(), 3 * LINES)
        assert_parity(scalar, replay)

    @pytest.mark.parametrize("name", ["unencoded", "dbi"])
    def test_parity_with_wear_leveling(self, name):
        """Start-Gap migrations happen at identical points on both paths."""

        def build():
            technology = CellTechnology.MLC
            leveler = StartGapWearLeveler(rows=ROWS, gap_write_interval=5)
            array = PCMArray(
                rows=leveler.physical_rows_required,
                row_bits=512,
                technology=technology,
                endurance_model=EnduranceModel(mean_writes=40, coefficient_of_variation=0.2),
                seed=7,
            )
            encoder = make_encoder(name, word_bits=64, technology=technology)
            return MemoryController(array=array, encoder=encoder, wear_leveler=leveler)

        first = build()
        scalar = _drive_scalar(first, 3 * LINES)
        second = build()
        replay = _drive_batched(second, 3 * LINES)
        assert_parity(scalar, replay)
        assert first.wear_leveler.gap_moves == second.wear_leveler.gap_moves
        assert first.wear_leveler.mapping_snapshot() == second.wear_leveler.mapping_snapshot()
        # Stats integers (including the migration writes) agree exactly.
        for key, value in first.stats.as_dict().items():
            if isinstance(value, int):
                assert value == second.stats.as_dict()[key], key

    def test_counters_continue_for_scalar_writes(self):
        """Encryption counters advance identically, so paths can interleave."""
        one = _controller("unencoded", CellTechnology.MLC)
        two = _controller("unencoded", CellTechnology.MLC)
        _drive_scalar(one, LINES)
        _drive_batched(two, LINES)
        words = [0x0123456789ABCDEF] * one.config.words_per_line
        a = one.write_line(5, words)
        b = two.write_line(5, words)
        assert a == b
        for address in range(ROWS):
            assert one.encryption.counter_for(address) == two.encryption.counter_for(address)
            assert one.read_line(address) == two.read_line(address)

    def test_address_space_honoured(self):
        """Addresses come from [0, address_space), same stream as the oracle."""
        scalar = _drive_scalar(
            _controller("unencoded", CellTechnology.MLC), LINES, address_space=4
        )
        replay = _drive_batched(
            _controller("unencoded", CellTechnology.MLC), LINES, address_space=4
        )
        assert_parity(scalar, replay)
        assert int(replay.addresses.max()) < 4

    @pytest.mark.parametrize("word_bits", [16, 32])
    def test_parity_for_narrow_words(self, word_bits):
        """Non-64-bit geometries draw the identical random stream."""

        def build():
            return build_controller(
                TechniqueSpec(encoder="unencoded", cost="saw-then-energy"),
                rows=ROWS,
                word_bits=word_bits,
                line_bits=256,
                seed=4,
                encrypt=True,
            )

        scalar = _drive_scalar(build(), LINES, seed=4)
        replay = _drive_batched(build(), LINES, seed=4)
        assert_parity(scalar, replay)


class TestRandomLinesControls:
    def test_zero_lines(self):
        controller = _controller("unencoded", CellTechnology.MLC)
        replay = _drive_batched(controller, 0)
        assert replay.writes == 0
        assert replay.write_stats().rows_written == 0
        assert controller.stats.rows_written == 0

    def test_negative_lines_rejected(self):
        controller = _controller("unencoded", CellTechnology.MLC)
        with pytest.raises(ConfigurationError):
            controller.write_random_lines(-1, make_rng(1, "x"))

    def test_bad_address_space_rejected(self):
        controller = _controller("unencoded", CellTechnology.MLC)
        with pytest.raises(ConfigurationError):
            controller.write_random_lines(4, make_rng(1, "x"), address_space=0)

    def test_stats_absorbed_once(self):
        controller = _controller("unencoded", CellTechnology.MLC)
        replay = _drive_batched(controller, LINES)
        assert controller.stats.rows_written == LINES
        assert controller.stats.saw_cells == int(replay.saw_cells.sum())

    def test_spans_multiple_chunks(self):
        """Drives longer than the first chunk stay on the shared stream."""
        total = 700  # the first chunk covers 512 writes
        scalar = _drive_scalar(
            _controller("unencoded", CellTechnology.MLC, seed=2), total, seed=2
        )
        replay = _drive_batched(
            _controller("unencoded", CellTechnology.MLC, seed=2), total, seed=2
        )
        assert_parity(scalar, replay)
