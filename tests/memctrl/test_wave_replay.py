"""Out-of-order wave replay: wave rule, gap windows, squash, batch shapes.

The wave scheduler of :meth:`MemoryController._replay_generic` picks, from
a look-ahead window, the earliest pending write of each distinct row and
runs them as one ``encode_lines`` call and one ``write_rows_fast``
scatter; writes retire in trace order, and an early stop squashes the
writes that ran ahead of it.  These tests pin the scheduling contracts the
parity suite alone would not catch red-handed: a repeated row is deferred
rather than cutting the wave, the window is ``REPLAY_LOOKAHEAD_WAVES *
replay_wave_lines`` writes long, no wave spans a Start-Gap migration, and
a squash leaves the whole controller exactly where the scalar
``write_line`` sequence would.
"""

from typing import List

import numpy as np
import pytest

import repro.obs as obs
from repro.coding.registry import make_encoder
from repro.ecc import HammingSecded
from repro.faults.registry import make_fault_model
from repro.memctrl.controller import REPLAY_LOOKAHEAD_WAVES, MemoryController
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.pcm.faultmap import FaultMap
from repro.pcm.wearlevel import StartGapWearLeveler
from repro.sim.harness import TechniqueSpec, build_controller
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace, WritebackRecord
from repro.utils.rng import make_rng

ROWS = 12


def _conflict_trace(addresses, seed=3):
    """A trace with a hand-picked address sequence and random payloads."""
    rng = make_rng(seed, "wave-conflicts")
    records = [
        WritebackRecord(
            address=int(address),
            words=tuple(int(w) for w in rng.integers(0, 2**62, size=8)),
        )
        for address in addresses
    ]
    return Trace(name="wave-conflicts", records=records, line_bits=512, word_bits=64)


def _controller(name="rcc", seed=3, **kwargs):
    return build_controller(
        TechniqueSpec(encoder=name, cost="saw-then-energy", num_cosets=16),
        rows=ROWS,
        fault_map=FaultMap(
            rows=ROWS, cells_per_row=256, technology=CellTechnology.MLC,
            fault_rate=2e-2, seed=seed,
        ),
        endurance_model=EnduranceModel(mean_writes=25, coefficient_of_variation=0.2),
        seed=seed,
        encrypt=True,
        **kwargs,
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


def _spy_batches(controller) -> List[int]:
    """Record the line count of every encode_lines call the replay makes."""
    batches: List[int] = []
    original = controller.encoder.encode_lines

    def spy(words, batch):
        batches.append(len(batch))
        return original(words, batch)

    controller.encoder.encode_lines = spy
    return batches


class TestRowConflicts:
    def test_same_row_trace_parity(self):
        """Every write hits one row: waves must degrade to single writes."""
        trace = _conflict_trace([5] * 20)
        scalar = _drive_scalar(_controller(), trace, repetitions=2)
        replayed = _controller()
        batches = _spy_batches(replayed)
        replay = replayed.replay_trace(trace, repetitions=2)
        assert_parity(scalar, replay)
        assert batches and all(size == 1 for size in batches)

    def test_rewrite_heavy_trace_parity(self):
        """Adjacent rewrites and aliased addresses split waves correctly."""
        # 3 and 3 + ROWS alias to the same row; back-to-back repeats force
        # one-line waves in between longer runs.
        addresses = [0, 1, 2, 2, 3, 3 + ROWS, 4, 5, 4, 6, 7, 8, 9, 10, 11, 0, 0, 1]
        trace = _conflict_trace(addresses)
        scalar = _drive_scalar(_controller(), trace, repetitions=3)
        replay = _controller().replay_trace(trace, repetitions=3)
        assert_parity(scalar, replay)

    def test_wave_batches_respect_conflicts(self):
        addresses = [0, 1, 2, 3, 1, 4, 5, 6, 7, 8]
        trace = _conflict_trace(addresses)
        controller = _controller()
        batches = _spy_batches(controller)
        controller.replay_trace(trace, repetitions=1)
        # The repeated row 1 is deferred, not a cut: the first wave takes
        # the earliest write of each of the 9 distinct rows, the second
        # wave the second write to row 1.
        assert batches == [9, 1]

    def test_distinct_rows_form_one_wave(self):
        addresses = list(range(ROWS))
        trace = _conflict_trace(addresses)
        controller = _controller()
        batches = _spy_batches(controller)
        controller.replay_trace(trace, repetitions=1)
        assert batches[0] == ROWS


def _spy_wave_rows(controller) -> List[List[int]]:
    """Record the rows of every write_rows_fast scatter the replay makes."""
    waves: List[List[int]] = []
    original = controller.array.write_rows_fast

    def spy(row_indices, intended):
        waves.append([int(row) for row in row_indices])
        before, stored, changed, newly = original(row_indices, intended)
        assert before.rows.tolist() == waves[-1]
        assert stored.shape == changed.shape == intended.shape
        assert newly.shape == (len(row_indices),)
        return before, stored, changed, newly

    controller.array.write_rows_fast = spy
    return waves


class TestWaveRule:
    def test_earliest_pending_write_per_row(self):
        """Cap 3, window 6: deferred rows wait, later distinct rows fill in."""
        assert REPLAY_LOOKAHEAD_WAVES == 2
        trace = _conflict_trace([0, 0, 1, 0, 2, 3, 4, 5])
        controller = _controller()
        controller.replay_wave_lines = 3
        waves = _spy_wave_rows(controller)
        replay = controller.replay_trace(trace, repetitions=1)
        # Wave 1 sees writes 0-5 and fills its 3 lines with the first
        # write of rows 0, 1, 2.  Wave 2 starts its window at the second
        # write to row 0 and takes rows 3 and 4 past the still-deferred
        # third write to row 0, which goes in wave 3 with row 5.
        assert waves == [[0, 1, 2], [0, 3, 4], [0, 5]]
        assert_parity(_drive_scalar(_controller(), trace, repetitions=1), replay)

    def test_window_bounds_the_lookahead(self):
        """A distinct row joins a wave only once it is inside the window."""
        trace = _conflict_trace([0] * 7 + [1])
        controller = _controller()
        controller.replay_wave_lines = 3
        waves = _spy_wave_rows(controller)
        controller.replay_trace(trace, repetitions=1)
        # The window spans 6 writes from the oldest pending one, so row 1
        # (write 7) first becomes eligible when write 2 is the oldest.
        assert waves == [[0], [0], [0, 1], [0], [0], [0], [0]]


class TestWearLevelingWaves:
    @pytest.mark.parametrize("name", ["rcc", "vcc", "bcc"])
    def test_gap_migration_flushes_wave(self, name):
        """With Start-Gap active, waves stop at every gap migration and the
        mapping evolves exactly as in the scalar sequence."""
        trace = generate_trace(
            "mcf", num_writebacks=18, memory_lines=ROWS, line_bits=512,
            word_bits=64, seed=9,
        )

        def build():
            leveler = StartGapWearLeveler(rows=ROWS, gap_write_interval=4)
            array = PCMArray(
                rows=leveler.physical_rows_required,
                row_bits=512,
                technology=CellTechnology.MLC,
                endurance_model=EnduranceModel(mean_writes=30, coefficient_of_variation=0.2),
                seed=11,
            )
            encoder = make_encoder(name, word_bits=64, num_cosets=16,
                                   technology=CellTechnology.MLC)
            return MemoryController(array=array, encoder=encoder, wear_leveler=leveler)

        first = build()
        scalar = _drive_scalar(first, trace, repetitions=3)
        second = build()
        batches = _spy_batches(second)
        replay = second.replay_trace(trace, repetitions=3)
        assert_parity(scalar, replay)
        assert first.wear_leveler.gap_moves == second.wear_leveler.gap_moves
        assert first.wear_leveler.mapping_snapshot() == second.wear_leveler.mapping_snapshot()
        # No wave may span a gap movement: with an interval of 4, batches
        # of more than 4 lines would have carried a migration mid-wave.
        assert batches and max(batches) <= 4

    def test_writes_until_gap_move_counts_down(self):
        leveler = StartGapWearLeveler(rows=4, gap_write_interval=3)
        assert leveler.writes_until_gap_move == 3
        leveler.record_write()
        assert leveler.writes_until_gap_move == 2
        leveler.record_write()
        assert leveler.record_write() is not None  # the move fires here
        assert leveler.writes_until_gap_move == 3


class TestFaultKnowledgeWaves:
    @pytest.mark.parametrize("fault_knowledge", ["oracle", "discovered", "none"])
    def test_coset_encoder_parity(self, fault_knowledge):
        trace = _conflict_trace([0, 1, 2, 3, 4, 2, 5, 6, 0, 7, 8, 9])

        def build():
            array = PCMArray(
                rows=ROWS,
                row_bits=512,
                technology=CellTechnology.MLC,
                fault_map=FaultMap(
                    rows=ROWS, cells_per_row=256, technology=CellTechnology.MLC,
                    fault_rate=2e-2, seed=5,
                ),
                seed=5,
            )
            encoder = make_encoder("rcc", word_bits=64, num_cosets=16,
                                   technology=CellTechnology.MLC)
            return MemoryController(array=array, encoder=encoder,
                                    fault_knowledge=fault_knowledge)

        scalar = _drive_scalar(build(), trace, repetitions=3)
        replay = build().replay_trace(trace, repetitions=3)
        assert_parity(scalar, replay)


class TestStopMidWave:
    def test_stop_inside_a_wave_leaves_exact_state(self):
        """Stopping at write k must not let the wave's later lines land."""
        addresses = list(range(ROWS))
        trace = _conflict_trace(addresses)
        cut = 5  # mid-wave: the first wave would cover all 12 rows
        scalar = _controller()
        for record in list(trace)[:cut]:
            scalar.write_line(record.address, list(record.words))
        replayed = _controller()
        replay = replayed.replay_trace(
            trace, repetitions=2, stop=lambda index, row, saw, bits: index == cut - 1
        )
        assert replay.writes == cut
        assert replay.stopped_early
        for record in trace:
            assert scalar.encryption.counter_for(record.address) == (
                replayed.encryption.counter_for(record.address)
            )
            assert scalar.read_line(record.address) == replayed.read_line(record.address)
        follow_up = trace[0]
        a = scalar.write_line(follow_up.address, list(follow_up.words))
        b = replayed.write_line(follow_up.address, list(follow_up.words))
        assert a == b

    def test_wave_cap_bounds_batches(self):
        addresses = list(range(ROWS))
        trace = _conflict_trace(addresses)
        controller = _controller()
        controller.replay_wave_lines = 3
        batches = _spy_batches(controller)
        replay = controller.replay_trace(trace, repetitions=2)
        assert replay.writes == 2 * ROWS
        assert batches and max(batches) <= 3
        scalar = _drive_scalar(_controller(), trace, repetitions=2)
        assert_parity(scalar, replay)


class TestBatchedArrayHelpers:
    def test_read_rows_matches_read_row(self):
        array = PCMArray(rows=6, row_bits=512, technology=CellTechnology.MLC, seed=1)
        rows = np.array([4, 0, 2])
        gathered = array.read_rows(rows)
        for position, row in enumerate(rows):
            assert np.array_equal(gathered[position], array.read_row(int(row)))
        with pytest.raises(Exception):
            array.read_rows(np.array([0, 6]))

    def test_write_rows_fast_matches_sequential(self):
        def build():
            return PCMArray(
                rows=6, row_bits=512, technology=CellTechnology.MLC,
                endurance_model=EnduranceModel(mean_writes=3, coefficient_of_variation=0.3),
                seed=2,
            )

        rng = make_rng(3, "write-rows")
        rows = np.array([5, 1, 3])
        intended = rng.integers(0, 4, size=(3, 256)).astype(np.uint8)
        sequential = build()
        expected = [sequential.write_row_fast(int(row), intended[k]) for k, row in enumerate(rows)]
        batched_array = build()
        before, stored, changed, newly = batched_array.write_rows_fast(rows, intended)
        # write_row_fast's SAW mask: stuck after the write and not the
        # intended value.
        saw = batched_array.stuck_rows(rows) & (stored != intended)
        for k, (e_old, e_stored, e_changed, e_saw, e_newly) in enumerate(expected):
            assert np.array_equal(before.cells[k], e_old)
            assert np.array_equal(stored[k], e_stored)
            assert np.array_equal(changed[k], e_changed)
            assert np.array_equal(saw[k], e_saw)
            assert newly[k] == e_newly
        assert np.array_equal(batched_array._cells, sequential._cells)
        assert np.array_equal(batched_array._stuck, sequential._stuck)
        assert np.array_equal(batched_array._wear, sequential._wear)

    @pytest.mark.parametrize("wear", [True, False])
    def test_write_rows_fast_returns_prewrite_state(self, wear):
        """The returned state is the rows' state before the call, and
        restoring it undoes the write (cells, stuck masks and wear)."""

        def build():
            return PCMArray(
                rows=6, row_bits=512, technology=CellTechnology.MLC,
                fault_map=FaultMap(
                    rows=6, cells_per_row=256, technology=CellTechnology.MLC,
                    fault_rate=2e-2, seed=4,
                ),
                endurance_model=(
                    EnduranceModel(mean_writes=1, coefficient_of_variation=0.3)
                    if wear else None
                ),
                seed=4,
            )

        array = build()
        rows = np.array([5, 1, 3], dtype=np.intp)
        cells = array.read_rows(rows)
        stuck = array.stuck_rows(rows)
        worn = np.stack([array.wear_of_row(int(row)) for row in rows])
        intended = (3 - cells).astype(np.uint8)
        before, _stored, _changed, newly = array.write_rows_fast(rows, intended)
        assert before.rows.tolist() == rows.tolist()
        assert np.array_equal(before.cells, cells)
        assert np.array_equal(before.stuck, stuck)
        if wear:
            assert newly.sum() > 0
            assert np.array_equal(before.wear, worn)
        else:
            assert before.wear is None
        assert not np.array_equal(array.read_rows(rows), cells)
        array.restore_rows(before)
        fresh = build()
        everything = np.arange(6)
        assert np.array_equal(array.read_rows(everything), fresh.read_rows(everything))
        assert np.array_equal(array.stuck_rows(everything), fresh.stuck_rows(everything))
        for row in range(6):
            assert np.array_equal(array.wear_of_row(row), fresh.wear_of_row(row))


# ---------------------------------------------------------------- squash
SQUASH_ENCODERS = ["rcc", "vcc", "vcc-stored", "flipcy", "dbi/fnw", "bcc"]
SQUASH_STOP = 50


def _hot_row_trace(writes=120):
    """Row 0 takes every other write; the others cycle through rows 1-11.

    The hot row limits every wave to one of its writes, so the cold rows
    run up to a full look-ahead window ahead of the oldest pending write.
    """
    return _conflict_trace(
        [0 if index % 2 == 0 else 1 + (index // 2) % (ROWS - 1) for index in range(writes)]
    )


def _squash_controller(name, fault_knowledge="oracle", leveler=False, transient=False):
    wear_leveler = StartGapWearLeveler(rows=ROWS, gap_write_interval=20) if leveler else None
    rows = ROWS + 1 if leveler else ROWS
    array = PCMArray(
        rows=rows,
        row_bits=512,
        technology=CellTechnology.MLC,
        fault_map=FaultMap(
            rows=rows, cells_per_row=256, technology=CellTechnology.MLC,
            fault_rate=2e-2, seed=4,
        ),
        endurance_model=EnduranceModel(mean_writes=12, coefficient_of_variation=0.3),
        seed=4,
    )
    encoder = make_encoder(name, word_bits=64, num_cosets=16, technology=CellTechnology.MLC)
    return MemoryController(
        array=array,
        encoder=encoder,
        fault_knowledge=fault_knowledge,
        wear_leveler=wear_leveler,
        fault_model=make_fault_model("transient", rate=2e-2) if transient else None,
        read_corrector=HammingSecded() if transient else None,
    )


def _controller_state(controller):
    """Everything a later write or read can observe, as comparable values."""
    array = controller.array
    rows = np.arange(array.rows)
    repository = controller.fault_repository
    leveler = controller.wear_leveler
    stats = controller.stats
    return {
        "cells": array.read_rows(rows).tolist(),
        "stuck": array.stuck_rows(rows).tolist(),
        "wear": [array.wear_of_row(int(row)).tolist() for row in rows],
        "aux": controller._aux_store.tolist(),
        "counters": {
            address: controller.encryption.counter_for(address) for address in range(4 * ROWS)
        },
        "faults": None if repository is None else [
            tuple(part.tolist() for part in repository.known_faults(row))
            for row in range(array.rows)
        ] + [repository.rows_with_faults()],
        "sense": None if controller._sense_counts is None else controller._sense_counts.tolist(),
        "leveler": None if leveler is None else (
            leveler.mapping_snapshot(),
            leveler.gap_position,
            leveler.writes_until_gap_move,
            leveler.gap_moves,
        ),
        "stats": (stats.rows_written, stats.cells_changed, stats.bits_changed, stats.saw_cells),
    }


def _assert_squash_parity(build, min_squashed=ROWS):
    trace = _hot_row_trace()
    scalar = build()
    scalar_results = [
        scalar.write_line(record.address, list(record.words))
        for record in list(trace)[: SQUASH_STOP + 1]
    ]
    replayed = build()
    squashed = obs.counter("replay.squashed_writes")
    before = squashed.value
    replay = replayed.replay_trace(
        trace, repetitions=2, stop=lambda index, row, saw, bits: index == SQUASH_STOP
    )
    assert replay.stopped_early
    assert_parity(scalar_results, replay)
    # Speculation ran well past the stop before it was undone.
    assert squashed.value - before >= min_squashed
    assert _controller_state(replayed) == _controller_state(scalar)
    follow_up = trace[SQUASH_STOP + 1]
    assert replayed.write_line(follow_up.address, list(follow_up.words)) == (
        scalar.write_line(follow_up.address, list(follow_up.words))
    )


class TestSquash:
    @pytest.mark.parametrize("fault_knowledge", ["oracle", "discovered", "none"])
    @pytest.mark.parametrize("name", SQUASH_ENCODERS)
    def test_stop_deep_in_hot_row_trace(self, name, fault_knowledge):
        _assert_squash_parity(lambda: _squash_controller(name, fault_knowledge))

    @pytest.mark.parametrize("name", ["rcc", "vcc-stored"])
    def test_transient_reads_with_ecc(self, name):
        """Squashed writes give back the sensed reads they consumed."""
        _assert_squash_parity(lambda: _squash_controller(name, transient=True))

    @pytest.mark.parametrize("fault_knowledge", ["oracle", "discovered"])
    @pytest.mark.parametrize("name", ["rcc", "vcc"])
    def test_start_gap(self, name, fault_knowledge):
        """Gap moves retire in order; speculation never crosses one.

        The move at write 39 ends the window at write 59, so the writes
        that ran past the stop at 50 must all lie below 60.
        """
        _assert_squash_parity(
            lambda: _squash_controller(name, fault_knowledge, leveler=True), min_squashed=3
        )

    def test_no_squash_without_speculation(self):
        """A stop on the last write of a wave squashes nothing."""
        trace = _conflict_trace(list(range(ROWS)))
        squashed = obs.counter("replay.squashed_writes")
        before = squashed.value
        replay = _controller().replay_trace(
            trace, repetitions=1, stop=lambda index, row, saw, bits: index == ROWS - 1
        )
        assert replay.writes == ROWS and replay.stopped_early
        assert squashed.value == before
