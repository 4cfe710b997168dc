"""Shared ciphertext streams: one derivation per trace, counters as a position.

An encrypted :meth:`MemoryController.replay_trace` slices its ciphertext
from the :class:`repro.crypto.counter_mode.CiphertextStream` kept on the
trace, then sets the engine's counters from the stream position it
performed.  These tests pin what that must not change: a warm stream gives
a second controller exactly a cold run's results, a replay from non-zero
counters still matches the ``write_line`` oracle and reads back, a stream
dies with its trace, and ``crypto.pads`` still counts one pad per
performed write.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest

import repro.obs as obs
from repro.coding.registry import available_encoders
from repro.crypto import counter_mode
from repro.crypto.counter_mode import CounterModeEngine
from repro.memctrl.controller import MemoryController
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.pcm.faultmap import FaultMap
from repro.sim.harness import (
    TechniqueSpec,
    build_controller,
    cached_trace,
    scalar_random_line_results,
)
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace
from repro.utils.rng import make_rng

ROWS = 16
REPLAY_FIELDS = (
    "addresses",
    "row_indices",
    "data_energy_pj",
    "aux_energy_pj",
    "cells_changed",
    "bits_changed",
    "saw_cells",
    "saw_bits_per_word",
    "newly_stuck_cells",
)


#: Word widths off the 8/16/32/64-bit grid, on 480-bit lines: 24-bit
#: words with every registry encoder, 12-bit words with those that
#: construct at that width.
ODD_WIDTHS = [(24, name) for name in available_encoders()] + [
    (12, name) for name in ("bcc", "dbi", "flipcy", "rcc", "unencoded", "vcc")
]


def _trace(seed=5, writebacks=40, line_bits=512, word_bits=64):
    return generate_trace(
        "mcf",
        num_writebacks=writebacks,
        memory_lines=ROWS,
        line_bits=line_bits,
        word_bits=word_bits,
        seed=seed,
    )


def _copy(trace):
    """The same records in a new Trace object, so nothing derived is shared."""
    return Trace(name=trace.name, records=list(trace.records), line_bits=512, word_bits=64)


def _controller(name="rcc", faults=True, seed=5, line_bits=512, word_bits=64):
    return build_controller(
        TechniqueSpec(encoder=name, cost="saw-then-energy", num_cosets=16),
        rows=ROWS,
        line_bits=line_bits,
        word_bits=word_bits,
        fault_map=FaultMap(
            rows=ROWS, cells_per_row=line_bits // 2, technology=CellTechnology.MLC,
            fault_rate=1e-2, seed=seed,
        ) if faults else None,
        endurance_model=(
            EnduranceModel(mean_writes=30, coefficient_of_variation=0.2) if faults else None
        ),
        seed=seed,
        encrypt=True,
    )


def _counters(controller, trace):
    return {
        record.address: controller.encryption.counter_for(record.address) for record in trace
    }


def _assert_same_replay(one, two):
    assert (one.writes, one.stopped_early) == (two.writes, two.stopped_early)
    for field in REPLAY_FIELDS:
        np.testing.assert_array_equal(getattr(one, field), getattr(two, field), err_msg=field)


def _derived_pads():
    return obs.counter("crypto.derived_pads").value


def _written_pads():
    return obs.counter("crypto.pads").value - obs.counter("crypto.rolled_back_counters").value


def _batched_runs():
    """Waves of the wave scheduler (identity encoders ride them too)."""
    return obs.counter("replay.waves").value


class TestSharedStream:
    @pytest.mark.parametrize("name", ["unencoded", "rcc", "vcc-stored"])
    def test_warm_stream_equals_cold_run(self, name):
        """A second controller reads the first one's pads and ends identical."""
        trace = _trace()
        stop_at = 70

        def stop(index, row, saw, bits):
            return index == stop_at

        _controller("rcc").replay_trace(trace, repetitions=3)  # warms the stream
        warm = _controller(name)
        before = _derived_pads()
        warm_replay = warm.replay_trace(trace, repetitions=3, stop=stop)
        assert _derived_pads() == before, "a warm stream derives no pads"

        cold = _controller(name)
        cold_replay = cold.replay_trace(_copy(trace), repetitions=3, stop=stop)
        assert _derived_pads() > before
        _assert_same_replay(warm_replay, cold_replay)
        assert _counters(warm, trace) == _counters(cold, trace)
        assert warm.stats.as_dict() == cold.stats.as_dict()

    def test_stream_matches_encrypt_lines(self):
        """Position p is the p-th write of the repeated trace, encrypted in order."""
        trace = _trace(writebacks=12)
        engine = CounterModeEngine()
        stream, position = engine.replay_stream(trace)
        assert position == 0
        oracle = CounterModeEngine()
        records = np.arange(30) % len(trace)
        expected = oracle.encrypt_lines(
            trace.addresses_array()[records], trace.words_array()[records]
        )
        np.testing.assert_array_equal(stream.segment(0, 30), expected)
        np.testing.assert_array_equal(stream.segment(7, 19), expected[7:19])
        assert stream.length == 30
        with pytest.raises(ValueError):
            stream.segment(0, 30)[0, 0] = 0

    def test_positions_past_the_retained_prefix_are_not_kept(self, monkeypatch):
        """A segment ending past the kept prefix is derived whole, matches
        the in-order encryption, and leaves the buffer at the prefix."""
        monkeypatch.setattr(counter_mode, "_STREAM_RETAINED_BYTES", 20 * 64)
        trace = _trace(writebacks=12)
        stream, _ = CounterModeEngine().replay_stream(trace)
        assert stream.retained == 20
        records = np.arange(60) % len(trace)
        expected = CounterModeEngine().encrypt_lines(
            trace.addresses_array()[records], trace.words_array()[records]
        )
        np.testing.assert_array_equal(stream.segment(0, 16), expected[:16])
        np.testing.assert_array_equal(stream.segment(16, 45), expected[16:45])
        np.testing.assert_array_equal(stream.segment(45, 60), expected[45:])
        np.testing.assert_array_equal(stream.segment(5, 20), expected[5:20])
        assert stream.length == 20 and len(stream._cipher) == 20

    def test_long_replay_past_the_retained_prefix(self, monkeypatch):
        """A replay that outruns the kept prefix still matches a cold run
        with the whole stream kept."""
        trace = _trace()
        cold = _controller()
        cold_replay = cold.replay_trace(_copy(trace), repetitions=40)
        monkeypatch.setattr(counter_mode, "_STREAM_RETAINED_BYTES", 600 * 64)
        warm = _controller()
        warm_replay = warm.replay_trace(trace, repetitions=40)
        stream, _ = CounterModeEngine().replay_stream(trace)
        assert stream.length == 512  # the first replay chunk; the later ones end past 600
        _assert_same_replay(warm_replay, cold_replay)
        assert _counters(warm, trace) == _counters(cold, trace)

    def test_interrupted_extension_leaves_the_stream_sound(self, monkeypatch):
        """A derivation cut short after bumping some counters (a task
        timeout, an interrupt) must not shift the pads of a retried replay
        that reads the same cached trace."""
        trace = _trace()
        _controller().replay_trace(trace)  # keeps the first pass
        encrypt_lines = CounterModeEngine.encrypt_lines

        def interrupted(engine, addresses, words):
            encrypt_lines(engine, addresses[: len(addresses) // 2], words[: len(words) // 2])
            raise KeyboardInterrupt

        monkeypatch.setattr(CounterModeEngine, "encrypt_lines", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _controller().replay_trace(trace, repetitions=3)
        monkeypatch.undo()

        retried = _controller()
        retried_replay = retried.replay_trace(trace, repetitions=3)
        cold = _controller()
        cold_replay = cold.replay_trace(_copy(trace), repetitions=3)
        _assert_same_replay(retried_replay, cold_replay)
        assert _counters(retried, trace) == _counters(cold, trace)

    @pytest.mark.parametrize("name", ["unencoded", "dbi/fnw", "rcc"])
    def test_nonzero_start_counters_match_write_line(self, name):
        """Counters left by write_line calls start their own stream and the
        replay still matches the scalar oracle, reading back every line."""
        trace = _trace()
        warm_up = [trace[index] for index in (3, 3, 8, 0)]
        scalar = _controller(name, faults=False)
        replayed = _controller(name, faults=False)
        for controller in (scalar, replayed):
            for record in warm_up:
                controller.write_line(record.address, list(record.words))
        _controller(name, faults=False).replay_trace(trace)  # a zero-start stream beside it

        expected = [
            scalar.write_line(record.address, list(record.words))
            for record in (list(trace) * 2)[:65]
        ]
        replay = replayed.replay_trace(trace, repetitions=2, max_writes=65)
        assert replay.line_results() == expected
        assert _counters(replayed, trace) == _counters(scalar, trace)

        last = {}
        for index in range(65):
            record = trace[index % len(trace)]
            last[record.address] = list(record.words)
        for address, words in last.items():
            assert replayed.read_line(address) == words
            assert scalar.read_line(address) == words

    def test_whole_passes_reuse_the_stream(self):
        """A controller that already replayed the trace k times reads the
        same stream from position k * len(trace)."""
        trace = _trace()
        scalar = _controller()
        expected = [
            scalar.write_line(record.address, list(record.words))
            for _ in range(3)
            for record in trace
        ]
        replayed = _controller()
        first = replayed.replay_trace(trace, repetitions=2)
        stream, position = replayed.encryption.replay_stream(trace)
        assert position == 2 * len(trace)
        assert len(trace._derived) == 2  # the address index and one stream
        second = replayed.replay_trace(trace)
        assert first.line_results() + second.line_results() == expected
        assert len(trace._derived) == 2
        assert stream.length >= 3 * len(trace)
        assert _counters(replayed, trace) == _counters(scalar, trace)


class TestStreamLifetime:
    def test_stream_dies_with_its_trace(self):
        trace = _trace()
        _controller().replay_trace(trace)
        stream, _ = CounterModeEngine().replay_stream(trace)
        alive = weakref.ref(stream)
        del stream, trace
        gc.collect()
        assert alive() is None

    def test_append_drops_streams(self):
        trace = _trace()
        _controller().replay_trace(trace)
        assert trace._derived
        trace.append(trace[0])
        assert not trace._derived

    def test_replayed_trace_still_pickles(self):
        trace = _trace()
        _controller().replay_trace(trace)
        copy = pickle.loads(pickle.dumps(trace))
        assert copy == trace and not copy._derived
        assert trace._derived

    def test_cache_clear_leaves_nothing_warm(self):
        args = ("lbm", 30, ROWS, 512, 64, 77)
        _controller().replay_trace(cached_trace(*args))
        cached_trace.cache_clear()
        trace = cached_trace(*args)
        assert not trace._derived
        before = _derived_pads()
        _controller().replay_trace(trace)
        assert _derived_pads() - before >= len(trace)


class TestPadAccounting:
    """``crypto.pads`` minus rolled-back counters is the writes performed."""

    @pytest.mark.parametrize("name", ["unencoded", "rcc"])
    def test_full_replay(self, name):
        trace = _trace()
        before = _written_pads()
        replay = _controller(name).replay_trace(trace, repetitions=2)
        assert _written_pads() - before == replay.writes == 2 * len(trace)

    @pytest.mark.parametrize("name", ["unencoded", "rcc"])
    def test_early_stopped_replay(self, name):
        trace = _trace()
        before = _written_pads()
        replay = _controller(name).replay_trace(
            trace, repetitions=4, stop=lambda index, row, saw, bits: index == 57
        )
        assert replay.stopped_early
        assert _written_pads() - before == replay.writes == 58

    @pytest.mark.parametrize("name", ["unencoded", "rcc"])
    def test_random_line_drive(self, name):
        before = _written_pads()
        replay = _controller(name).write_random_lines(700, make_rng(3, "pads"))
        assert _written_pads() - before == replay.writes == 700

    @pytest.mark.parametrize("word_bits, name", ODD_WIDTHS)
    def test_scalar_writes_and_odd_widths(self, word_bits, name):
        """write_line counts one pad.  At an odd word width, an encrypted
        replay (in full and stopped early) and a random-line drive take
        the batched drivers, count one pad per write, and match the
        write_line loop bit for bit, controller.stats and counters included."""
        before = _written_pads()
        controller = _controller()
        record = _trace()[0]
        controller.write_line(record.address, list(record.words))
        assert _written_pads() - before == 1

        geometry = {"line_bits": 480, "word_bits": word_bits}
        trace = _trace(**geometry)
        for cut in (None, 70):
            scalar = _controller(name, **geometry)
            assert isinstance(scalar, MemoryController)
            expected = [
                scalar.write_line(record.address, list(record.words))
                for record in (list(trace) * 3)[: 3 * len(trace) if cut is None else cut + 1]
            ]
            replayed = _controller(name, **geometry)
            before, runs = _written_pads(), _batched_runs()
            replay = replayed.replay_trace(
                trace,
                repetitions=3,
                stop=None if cut is None else (lambda index, row, saw, bits: index == cut),
            )
            assert _batched_runs() > runs
            assert _written_pads() - before == replay.writes == len(expected)
            assert replay.line_results() == expected
            assert replayed.stats == scalar.stats
            assert _counters(replayed, trace) == _counters(scalar, trace)

        scalar, batched = _controller(name, **geometry), _controller(name, **geometry)
        expected = scalar_random_line_results(scalar, 60, seed=5)
        before, runs = _written_pads(), _batched_runs()
        result = batched.write_random_lines(60, make_rng(5, "random-lines"))
        assert _batched_runs() > runs
        assert _written_pads() - before == result.writes == 60
        assert result.line_results() == expected
        assert batched.stats == scalar.stats
