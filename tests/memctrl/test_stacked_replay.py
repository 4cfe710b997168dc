"""Stacked replays: several controllers as bands of one wave schedule.

:func:`repro.memctrl.controller.replay_stacked` replays one trace on
several controllers at once: one admission, selection and retirement
pass, one gather, one ``encode_lines`` call per coding band, one scatter
and one accounting flush per wave.  Each band must end exactly where its
own ``replay_trace`` would: the same per-write results and the same
controller state (array cells, wear, stuck masks, auxiliary store,
encryption counters, fault repository, sensed-read counts, Start-Gap
mapping and running stats), whichever bands stop early and wherever.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.memctrl.controller import replay_stacked
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellTechnology

from test_wave_replay import (
    ROWS,
    _controller,
    _controller_state,
    _hot_row_trace,
    _squash_controller,
)

REPLAY_FIELDS = (
    "addresses",
    "row_indices",
    "data_energy_fj",
    "aux_energy_fj",
    "cells_changed",
    "bits_changed",
    "saw_cells",
    "saw_bits_per_word",
    "newly_stuck_cells",
)


def _stop_at(index):
    return None if index is None else (lambda write, row, saw, bits: write == index)


def _assert_same(solo, stacked):
    assert (stacked.writes, stacked.stopped_early) == (solo.writes, solo.stopped_early)
    for field in REPLAY_FIELDS:
        np.testing.assert_array_equal(getattr(stacked, field), getattr(solo, field), err_msg=field)


def _assert_stack_matches_solo(build, names, stop_indices, repetitions=2):
    """Replay ``names`` stacked and one by one; compare every band."""
    trace = _hot_row_trace()
    solos = [build(name) for name in names]
    solo_replays = [
        controller.replay_trace(trace, repetitions=repetitions, stop=_stop_at(index))
        for controller, index in zip(solos, stop_indices)
    ]
    stacked = [build(name) for name in names]
    replays = replay_stacked(
        stacked, trace, repetitions, [_stop_at(index) for index in stop_indices]
    )
    assert len(replays) == len(names)
    for solo, band, solo_replay, replay in zip(solos, stacked, solo_replays, replays):
        _assert_same(solo_replay, replay)
        assert _controller_state(band) == _controller_state(solo)
        # The bands keep working on their own after the stack is gone.
        record = trace[7]
        assert band.write_line(record.address, list(record.words)) == solo.write_line(
            record.address, list(record.words)
        )
        assert band.read_line(record.address) == solo.read_line(record.address)


MIXED = ["rcc", "unencoded", "vcc-stored", "flipcy", "dbi/fnw", "unencoded"]


class TestStackedEqualsSolo:
    @pytest.mark.parametrize("fault_knowledge", ["oracle", "discovered", "none"])
    def test_bands_stop_at_different_writes(self, fault_knowledge):
        _assert_stack_matches_solo(
            lambda name: _squash_controller(name, fault_knowledge),
            MIXED,
            [50, 17, None, 101, 50, 200],
        )

    def test_transient_reads_with_ecc(self):
        _assert_stack_matches_solo(
            lambda name: _squash_controller(name, transient=True),
            ["rcc", "vcc-stored", "unencoded"],
            [33, 80, 12],
        )

    @pytest.mark.parametrize("fault_knowledge", ["oracle", "discovered"])
    def test_start_gap(self, fault_knowledge):
        """Every band's leveler moves its gap on the same writes."""
        _assert_stack_matches_solo(
            lambda name: _squash_controller(name, fault_knowledge, leveler=True),
            ["rcc", "vcc", "unencoded"],
            [50, None, 71],
        )

    def test_no_stops_run_to_the_end(self):
        _assert_stack_matches_solo(
            lambda name: _controller(name), ["rcc", "unencoded", "vcc"], [None] * 3, 3
        )

    def test_every_band_stops_on_its_first_write(self):
        _assert_stack_matches_solo(lambda name: _controller(name), ["rcc", "vcc"], [0, 0])

    def test_max_writes_and_empty_replays(self):
        trace = _hot_row_trace()
        for max_writes in (0, 1, 37):
            solos = [_controller(name) for name in ("rcc", "unencoded")]
            expected = [c.replay_trace(trace, 2, max_writes=max_writes) for c in solos]
            stacked = [_controller(name) for name in ("rcc", "unencoded")]
            for replay, solo in zip(replay_stacked(stacked, trace, 2, None, max_writes), expected):
                _assert_same(solo, replay)
            assert [_controller_state(c) for c in stacked] == [_controller_state(c) for c in solos]


class TestStackContract:
    def test_one_controller_is_its_own_band(self):
        controller = _controller("rcc")
        array = controller.array
        cells = array._cells
        replay_stacked([controller], _hot_row_trace(), 1)
        assert controller.array is array and array._cells is cells

    def test_bands_view_one_store(self):
        controllers = [_controller(name) for name in ("rcc", "vcc")]
        replay_stacked(controllers, _hot_row_trace(), 1)
        first, second = (controller.array._cells for controller in controllers)
        assert first.base is not None and first.base is second.base

    @pytest.mark.parametrize(
        "mismatch",
        ["same controller", "rows", "wave cap", "leveler state", "stops"],
    )
    def test_unstackable_controllers_are_rejected(self, mismatch):
        trace = _hot_row_trace()
        first = _squash_controller("rcc", leveler=mismatch == "leveler state")
        second = _squash_controller("vcc", leveler=mismatch == "leveler state")
        stops = [None, None]
        if mismatch == "same controller":
            second = first
        elif mismatch == "rows":
            second = _controller("vcc")
            second.array = PCMArray(rows=ROWS + 1, technology=CellTechnology.MLC)
        elif mismatch == "wave cap":
            second.replay_wave_lines = 8
        elif mismatch == "leveler state":
            record = trace[0]
            second.write_line(record.address, list(record.words))
        else:
            stops = [None]
        with pytest.raises(ConfigurationError):
            replay_stacked([first, second], trace, 1, stops)
