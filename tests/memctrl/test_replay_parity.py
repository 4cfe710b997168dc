"""Bit-identity of the batched replay engine against the scalar write path.

The contract of :meth:`repro.memctrl.controller.MemoryController.replay_trace`
is that every per-write accounting value equals what the corresponding
sequence of :meth:`write_line` calls produces — for every registry encoder,
both cell technologies, with faults, wear, encryption, and wear leveling in
play.  The scalar path is the oracle.
"""

import numpy as np
import pytest

from repro.coding.registry import available_encoders, make_encoder
from repro.errors import ConfigurationError, TraceError
from repro.memctrl.config import ControllerConfig
from repro.memctrl.controller import MemoryController
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.pcm.energy import MLCEnergyModel, SLCEnergyModel
from repro.pcm.faultmap import FaultMap
from repro.pcm.stats import WriteStats
from repro.pcm.wearlevel import StartGapWearLeveler
from repro.sim.harness import TechniqueSpec, build_controller, scalar_random_line_results
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace
from repro.utils.rng import make_rng

ROWS = 16
TRACE = {"num_writebacks": 12, "memory_lines": ROWS, "line_bits": 512, "word_bits": 64}


def _trace(seed=9):
    return generate_trace("mcf", seed=seed, **TRACE)


def _controller(name, technology, seed=9):
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


def _drive_scalar(controller, trace, repetitions):
    results = []
    for _ in range(repetitions):
        for record in trace:
            results.append(controller.write_line(record.address, list(record.words)))
    return results


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


class TestReplayParity:
    @pytest.mark.parametrize("name", available_encoders())
    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    def test_registry_encoder_parity(self, name, technology):
        """Replay accounting is bit-identical to write_line for every encoder."""
        trace = _trace()
        scalar = _drive_scalar(_controller(name, technology), trace, repetitions=2)
        replay = _controller(name, technology).replay_trace(trace, repetitions=2)
        assert_parity(scalar, replay)

    @pytest.mark.parametrize("name", ["unencoded", "rcc"])
    def test_parity_without_encryption(self, name):
        trace = _trace()

        def build():
            return build_controller(
                TechniqueSpec(encoder=name, cost="saw-then-energy", num_cosets=16),
                rows=ROWS,
                seed=3,
                encrypt=False,
            )

        scalar = _drive_scalar(build(), trace, repetitions=2)
        replay = build().replay_trace(trace, repetitions=2)
        assert_parity(scalar, replay)

    @pytest.mark.parametrize("fault_knowledge", ["oracle", "discovered", "none"])
    def test_parity_across_fault_knowledge_modes(self, fault_knowledge):
        trace = _trace()

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

        scalar = _drive_scalar(build(), trace, repetitions=3)
        replay = build().replay_trace(trace, repetitions=3)
        assert_parity(scalar, replay)

    @pytest.mark.parametrize("name", ["unencoded", "dbi"])
    def test_parity_with_wear_leveling(self, name):
        """Start-Gap migrations happen at identical points on both paths."""
        trace = _trace()

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
        scalar = _drive_scalar(first, trace, repetitions=3)
        second = build()
        replay = second.replay_trace(trace, repetitions=3)
        assert_parity(scalar, replay)
        assert first.wear_leveler.gap_moves == second.wear_leveler.gap_moves
        assert first.wear_leveler.mapping_snapshot() == second.wear_leveler.mapping_snapshot()
        # Stats integers (including the migration writes) agree exactly.
        for key, value in first.stats.as_dict().items():
            if isinstance(value, int):
                assert value == second.stats.as_dict()[key], key

    def test_replay_counters_continue_for_scalar_writes(self):
        """Encryption counters advance identically, so paths can interleave."""
        trace = _trace()
        one = _controller("unencoded", CellTechnology.MLC)
        two = _controller("unencoded", CellTechnology.MLC)
        _drive_scalar(one, trace, repetitions=1)
        two.replay_trace(trace, repetitions=1)
        record = trace[0]
        a = one.write_line(record.address, list(record.words))
        b = two.write_line(record.address, list(record.words))
        assert a == b

    @pytest.mark.parametrize("name", ["unencoded", "rcc"])
    def test_early_stop_leaves_exact_controller_state(self, name):
        """An early-stopped replay leaves counters, reads, and later writes
        exactly where the equivalent scalar write_line sequence would."""
        trace = _trace()
        cut = 3
        scalar = _controller(name, CellTechnology.MLC)
        for record in list(trace)[:cut]:
            scalar.write_line(record.address, list(record.words))
        replayed = _controller(name, CellTechnology.MLC)
        result = replayed.replay_trace(
            trace, repetitions=2, stop=lambda index, row, saw, bits: index == cut - 1
        )
        assert result.writes == cut
        for record in trace:
            address = record.address
            assert scalar.encryption.counter_for(address) == replayed.encryption.counter_for(
                address
            ), address
            assert scalar.read_line(address) == replayed.read_line(address)
        follow_up = trace[0]
        a = scalar.write_line(follow_up.address, list(follow_up.words))
        b = replayed.write_line(follow_up.address, list(follow_up.words))
        assert a == b

    @pytest.mark.parametrize("cut", [1700, None])
    def test_identity_path_across_chunks_and_blocks(self, cut):
        """The identity path runs long chunks in blocks; a replay over
        several chunks, stopped inside a later block or run to its end,
        matches write_line and leaves the same counters."""
        trace = _trace()
        writes = 2000
        performed = writes if cut is None else cut
        scalar = _controller("unencoded", CellTechnology.MLC)
        expected = [
            scalar.write_line(record.address, list(record.words))
            for record in (list(trace) * -(-writes // len(trace)))[:performed]
        ]
        replayed = _controller("unencoded", CellTechnology.MLC)
        replay = replayed.replay_trace(
            trace,
            repetitions=-(-writes // len(trace)),
            max_writes=writes,
            stop=None if cut is None else (lambda index, row, saw, bits: index == cut - 1),
        )
        assert replay.stopped_early == (cut is not None)
        assert_parity(expected, replay)
        for record in trace:
            assert scalar.encryption.counter_for(record.address) == (
                replayed.encryption.counter_for(record.address)
            )


#: Non-integer transition energies: every reassociation of a row's energy
#: sum shows in the last ulp, which the default 0/2/20 pJ table hides.
FRACTIONAL_MLC = MLCEnergyModel(
    low_energy_pj=1.3, high_energy_pj=13.7, same_state_energy_pj=0.1, aux_bit_energy_pj=0.7
)
FRACTIONAL_SLC = SLCEnergyModel(set_energy_pj=1.3, reset_energy_pj=2.9, aux_bit_energy_pj=0.7)


def _fractional_controller(name, technology, leveled):
    """Stuck cells and wear on a controller charging fractional energies;
    the encoder keeps its integer default cost.  ``leveled`` adds a
    Start-Gap leveler that moves a row every 5 writes."""
    cells = 512 // technology.bits_per_cell
    leveler = StartGapWearLeveler(rows=ROWS, gap_write_interval=5) if leveled else None
    rows = ROWS if leveler is None else leveler.physical_rows_required
    array = PCMArray(
        rows=rows,
        row_bits=512,
        technology=technology,
        fault_map=FaultMap(
            rows=rows, cells_per_row=cells, technology=technology, fault_rate=2e-2, seed=7
        ),
        endurance_model=EnduranceModel(mean_writes=30, coefficient_of_variation=0.2),
        seed=7,
    )
    encoder = make_encoder(name, word_bits=64, num_cosets=16, technology=technology)
    return MemoryController(
        array=array,
        encoder=encoder,
        mlc_energy=FRACTIONAL_MLC,
        slc_energy=FRACTIONAL_SLC,
        wear_leveler=leveler,
    )


def _warm_pair(name, technology, warm, leveled=False):
    """Two identical fractional-energy controllers; when ``warm`` both
    already hold the same earlier writes, so running totals start above 0."""
    pair = tuple(_fractional_controller(name, technology, leveled) for _ in range(2))
    for controller in pair:
        for record in list(_trace(seed=4)) if warm else []:
            controller.write_line(record.address, list(record.words))
    return pair


LEVELED = pytest.mark.parametrize("leveled", [False, True], ids=["flat", "start-gap"])


class TestFractionalEnergyParity:
    @LEVELED
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("cut", [29, None])
    @pytest.mark.parametrize("name", ["unencoded", "rcc", "vcc"])
    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    def test_energies_match_write_line_bit_for_bit(self, technology, name, cut, warm, leveled):
        """Wave (rcc, vcc) and identity (unencoded) replays charge exactly
        the energies of the write_line loop, stopped early or not, and
        total them in its order: controller.stats and write_stats() equal
        the loop's running sums, also on a controller holding earlier
        writes, and with Start-Gap moves charged where the loop charges them."""
        trace = _trace()
        repetitions = 3
        writes = repetitions * len(trace)
        performed = writes if cut is None else cut + 1
        scalar, replayed = _warm_pair(name, technology, warm, leveled)
        rows_before = replayed.stats.rows_written
        expected = [
            scalar.write_line(record.address, list(record.words))
            for record in (list(trace) * repetitions)[:performed]
        ]
        replay = replayed.replay_trace(
            trace,
            repetitions=repetitions,
            stop=None if cut is None else (lambda index, row, saw, bits: index == cut),
        )
        assert replay.stopped_early == (cut is not None)
        assert sum(line.saw_cells for line in expected) > 0
        assert any(line.data_energy_pj != round(line.data_energy_pj) for line in expected)
        assert_parity(expected, replay)
        assert replay.data_energy_pj.tolist() == [line.data_energy_pj for line in expected]
        assert replay.aux_energy_pj.tolist() == [line.aux_energy_pj for line in expected]
        assert replayed.stats == scalar.stats
        assert replay.write_stats() == WriteStats.from_line_results(expected, replay.words_per_line)
        assert (replayed.stats.rows_written - rows_before > replay.writes) == leveled

    @LEVELED
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("name", ["unencoded", "rcc", "vcc"])
    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    def test_random_line_totals_match_write_line_bit_for_bit(
        self, technology, name, warm, leveled
    ):
        scalar, batched = _warm_pair(name, technology, warm, leveled)
        expected = scalar_random_line_results(scalar, 60, seed=5)
        result = batched.write_random_lines(60, make_rng(5, "random-lines"))
        assert batched.stats == scalar.stats
        assert result.write_stats() == WriteStats.from_line_results(expected, result.words_per_line)


class TestEnergyOrderIndependence:
    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    def test_shuffled_energy_sums_equal_controller_stats(self, technology):
        """Fractional-table energies, Start-Gap moves included, add up to
        controller.stats in any order: nothing depends on where a move
        falls among the writes or on how a reduction associates."""
        trace = _trace()
        scalar, replayed = _warm_pair("rcc", technology, warm=False, leveled=True)
        charges = []  # (data fJ, aux fJ) of every write and every gap move
        for record in list(trace) * 3:
            before = (scalar.stats.data_energy_fj, scalar.stats.aux_energy_fj)
            line = scalar.write_line(record.address, list(record.words))
            charges.append((line.data_energy_fj, line.aux_energy_fj))
            move = (
                scalar.stats.data_energy_fj - before[0] - line.data_energy_fj,
                scalar.stats.aux_energy_fj - before[1] - line.aux_energy_fj,
            )
            if move != (0, 0):
                charges.append(move)
        replay = replayed.replay_trace(trace, repetitions=3)
        assert len(charges) > replay.writes, "no Start-Gap move was charged"
        assert replayed.stats == scalar.stats
        totals = (replayed.stats.data_energy_fj, replayed.stats.aux_energy_fj)
        rng = make_rng(3, "shuffle")
        for _ in range(8):
            shuffled = [charges[i] for i in rng.permutation(len(charges))]
            assert tuple(sum(column) for column in zip(*shuffled)) == totals
            order = rng.permutation(replay.writes)
            assert sum(replay.data_energy_fj[order].tolist()) == (
                replay.write_stats().data_energy_fj
            )


class TestReplayControls:
    def test_early_stop_truncates_and_flags(self):
        trace = _trace()
        controller = _controller("unencoded", CellTechnology.MLC)
        replay = controller.replay_trace(
            trace, repetitions=5, stop=lambda index, row, saw, bits: index == 7
        )
        assert replay.writes == 8
        assert replay.stopped_early
        assert len(replay.addresses) == 8
        assert replay.saw_bits_per_word.shape == (8, 8)

    def test_stop_sees_per_write_accounting(self):
        trace = _trace()
        controller = _controller("unencoded", CellTechnology.MLC)
        seen = []
        controller.replay_trace(
            trace,
            repetitions=2,
            stop=lambda index, row, saw, bits: seen.append((index, row, saw)) or False,
        )
        replay_writes = len(seen)
        assert replay_writes == 2 * len(trace)
        assert [entry[0] for entry in seen] == list(range(replay_writes))

    def test_max_writes_caps_partial_repetition(self):
        trace = _trace()
        controller = _controller("rcc", CellTechnology.MLC)
        replay = controller.replay_trace(trace, repetitions=5, max_writes=len(trace) + 3)
        assert replay.writes == len(trace) + 3
        assert not replay.stopped_early

    def test_zero_work_replay(self):
        trace = _trace()
        controller = _controller("unencoded", CellTechnology.MLC)
        replay = controller.replay_trace(trace, repetitions=0)
        assert replay.writes == 0
        assert replay.write_stats().rows_written == 0

    def test_geometry_validated(self):
        controller = _controller("unencoded", CellTechnology.MLC)
        narrow = generate_trace(
            "mcf", num_writebacks=4, memory_lines=ROWS, line_bits=256, word_bits=64, seed=1
        )
        with pytest.raises(ConfigurationError, match="geometry"):
            controller.replay_trace(narrow)
        half_words = generate_trace(
            "mcf", num_writebacks=4, memory_lines=ROWS, line_bits=512, word_bits=32, seed=1
        )
        with pytest.raises(ConfigurationError, match="word size"):
            controller.replay_trace(half_words)
        with pytest.raises(ConfigurationError):
            controller.replay_trace(_trace(), repetitions=-1)
        assert controller.stats == WriteStats()

    @pytest.mark.parametrize("name", ["unencoded", "vcc"])
    def test_words_wider_than_64_bits_rejected_at_construction(self, name):
        """No controller or trace with 128-bit words can be built, so no
        write path meets one."""
        with pytest.raises(ConfigurationError, match="between 1 and 64"):
            build_controller(TechniqueSpec(encoder=name), rows=ROWS, word_bits=128)
        with pytest.raises(TraceError, match="between 1 and 64"):
            Trace(name="wide", word_bits=128)

    def test_write_stats_matches_line_results(self):
        trace = _trace()
        controller = _controller("rcc", CellTechnology.MLC)
        replay = controller.replay_trace(trace, repetitions=2)
        rebuilt = WriteStats.from_line_results(
            replay.line_results(), controller.config.words_per_line
        )
        assert rebuilt == replay.write_stats()
