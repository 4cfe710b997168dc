"""Tests for the line-granularity encoding API.

``encode_line`` (a one-line view of ``encode_lines``) must agree with
individually issued word-level ``encode`` calls, and ``decode_line`` must
round-trip.  The full codeword/aux/cost parity matrix against the
``encode_line_scalar`` oracle lives in ``test_encode_lines.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.base import (
    EncodedLine,
    EncodedWord,
    Encoder,
    LineBatch,
    LineContext,
    WordContext,
    cells_matrix_to_words,
    words_matrix_to_cells,
)
from repro.coding.cost import BitChangeCost
from repro.coding.registry import available_encoders, make_encoder
from repro.errors import ConfigurationError, EncodingError
from repro.pcm.cell import CellTechnology
from repro.utils.bitops import random_word

ALL_ENCODERS = sorted(available_encoders())
WORDS_PER_LINE = 8


def _random_line(rng, word_bits=64):
    return [random_word(rng, word_bits) for _ in range(WORDS_PER_LINE)]


def _random_context(rng, encoder, stuck=False, old_aux=False):
    cells = encoder.cells_per_word
    levels = 2 ** encoder.bits_per_cell
    old = rng.integers(0, levels, size=(WORDS_PER_LINE, cells)).astype(np.uint8)
    stuck_mask = (rng.random((WORDS_PER_LINE, cells)) < 0.08) if stuck else None
    old_auxes = None
    if old_aux and encoder.aux_bits > 0:
        old_auxes = rng.integers(0, 1 << encoder.aux_bits, size=WORDS_PER_LINE)
    return LineContext(
        old_cells=old,
        stuck_mask=stuck_mask,
        bits_per_cell=encoder.bits_per_cell,
        old_auxes=old_auxes,
    )


class TestScalarBatchParity:
    @pytest.mark.parametrize("name", ALL_ENCODERS)
    def test_decode_line_round_trips(self, name, rng):
        encoder = make_encoder(name, num_cosets=32, seed=7)
        context = _random_context(rng, encoder, stuck=True, old_aux=True)
        words = _random_line(rng)
        encoded = encoder.encode_line(words, context)
        assert encoder.decode_line(encoded.codewords, encoded.auxes) == words

    @pytest.mark.parametrize("name", ALL_ENCODERS)
    def test_line_matches_per_word_encode(self, name, rng):
        # The batch result must agree with individually issued scalar calls.
        encoder = make_encoder(name, num_cosets=16, seed=3)
        context = _random_context(rng, encoder, stuck=True)
        words = _random_line(rng)
        encoded = encoder.encode_line(words, context)
        for index, word in enumerate(words):
            single = encoder.encode(word, context.word_context(index))
            assert encoded.word(index) == single


class _ScalarOnlyEncoder(Encoder):
    """A third-party-style encoder implementing only the word interface."""

    name = "third-party"

    @property
    def aux_bits(self) -> int:
        return 1

    def encode(self, data, context):
        inverted = data ^ ((1 << self.word_bits) - 1)
        return self._select_best([data, inverted], [0, 1], context)

    def decode(self, codeword, aux):
        return codeword ^ (((1 << self.word_bits) - 1) if aux else 0)


class TestScalarFallback:
    def test_default_encode_line_uses_scalar_loop(self, rng):
        encoder = _ScalarOnlyEncoder(64, CellTechnology.MLC, BitChangeCost())
        context = _random_context(rng, encoder, stuck=True)
        words = _random_line(rng)
        encoded = encoder.encode_line(words, context)
        assert isinstance(encoded, EncodedLine)
        assert encoded == encoder.encode_line_scalar(words, context)
        assert encoder.decode_line(encoded.codewords, encoded.auxes) == words

    def test_mismatched_geometry_rejected(self, rng):
        encoder = _ScalarOnlyEncoder(64, CellTechnology.MLC, BitChangeCost())
        context = LineContext.blank(words_per_line=4, word_bits=32, bits_per_cell=2)
        with pytest.raises(EncodingError):
            encoder.encode_line([1, 2, 3, 4], context)

    def test_word_count_mismatch_rejected(self, rng):
        encoder = _ScalarOnlyEncoder(64, CellTechnology.MLC, BitChangeCost())
        context = LineContext.blank(words_per_line=8)
        with pytest.raises(EncodingError):
            encoder.encode_line([1, 2, 3], context)

    def test_decode_line_length_mismatch_rejected(self):
        encoder = _ScalarOnlyEncoder(64, CellTechnology.MLC, BitChangeCost())
        with pytest.raises(EncodingError):
            encoder.decode_line([1, 2], [0])


class TestLineContext:
    def test_blank_geometry(self):
        context = LineContext.blank(words_per_line=8, word_bits=64, bits_per_cell=2)
        assert context.words_per_line == 8
        assert context.word_bits == 64
        assert context.old_cells.shape == (8, 32)
        assert np.array_equal(context.old_auxes, np.zeros(8, dtype=np.int64))

    def test_from_row_reshapes(self, rng):
        row = rng.integers(0, 4, size=256).astype(np.uint8)
        stuck = rng.random(256) < 0.1
        context = LineContext.from_row(row, 8, bits_per_cell=2, stuck_mask=stuck)
        assert context.old_cells.shape == (8, 32)
        assert context.stuck_mask.shape == (8, 32)
        assert np.array_equal(context.old_cells.reshape(-1), row)

    def test_word_context_round_trip(self, rng):
        old = rng.integers(0, 4, size=(8, 32)).astype(np.uint8)
        auxes = np.arange(8)
        context = LineContext(old_cells=old, bits_per_cell=2, old_auxes=auxes)
        word_ctx = context.word_context(3)
        assert isinstance(word_ctx, WordContext)
        assert np.array_equal(word_ctx.old_cells, old[3])
        assert word_ctx.old_aux == 3

    def test_from_contexts_stacks(self, rng):
        contexts = [
            WordContext(
                old_cells=rng.integers(0, 4, size=32).astype(np.uint8),
                bits_per_cell=2,
                old_aux=index,
            )
            for index in range(4)
        ]
        line = LineContext.from_contexts(contexts)
        assert line.words_per_line == 4
        for index in range(4):
            assert np.array_equal(line.old_cells[index], contexts[index].old_cells)
            assert line.old_auxes[index] == index

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            LineContext(old_cells=np.zeros(8, dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            LineContext(
                old_cells=np.zeros((2, 4), dtype=np.uint8),
                stuck_mask=np.zeros((2, 5), dtype=bool),
            )
        with pytest.raises(ConfigurationError):
            LineContext(
                old_cells=np.zeros((2, 4), dtype=np.uint8),
                old_auxes=np.zeros(3, dtype=np.int64),
            )


class TestLineBatch:
    def test_from_lines_stacks_lines(self, rng):
        contexts = [
            LineContext(
                old_cells=rng.integers(0, 4, size=(4, 16)).astype(np.uint8),
                stuck_mask=(rng.random((4, 16)) < 0.1) if index else None,
                bits_per_cell=2,
                old_auxes=rng.integers(0, 8, size=4),
            )
            for index in range(3)
        ]
        batch = LineBatch.from_lines(contexts)
        assert len(batch) == 3
        assert batch.words_per_line == 4 and batch.word_bits == 32
        assert batch.old_cells.shape == batch.stuck_mask.shape == (3, 4, 16)
        assert batch.old_auxes.shape == (3, 4)
        # A line without a mask stacks as all-False next to masked lines.
        assert not batch.stuck_mask[0].any()
        for index, context in enumerate(contexts):
            line = batch.line(index)
            assert np.array_equal(line.old_cells, context.old_cells)
            assert np.array_equal(line.old_auxes, context.old_auxes)
        assert np.array_equal(batch.line(1).stuck_mask, contexts[1].stuck_mask)

    def test_from_lines_rejects_mixed_or_empty(self):
        with pytest.raises(ConfigurationError):
            LineBatch.from_lines([])
        with pytest.raises(ConfigurationError):
            LineBatch.from_lines([LineContext.blank(words_per_line=4), LineContext.blank()])
        with pytest.raises(ConfigurationError):
            LineBatch.from_lines(
                [LineContext.blank(bits_per_cell=2), LineContext.blank(bits_per_cell=1)]
            )

    def test_construction_validates_shapes(self):
        cells = np.zeros((2, 8, 32), dtype=np.uint8)
        with pytest.raises(ConfigurationError):
            LineBatch(old_cells=np.zeros((8, 32), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            LineBatch(old_cells=np.zeros((0, 8, 32), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            LineBatch(old_cells=cells, stuck_mask=np.zeros((2, 8, 16), dtype=bool))
        with pytest.raises(ConfigurationError):
            LineBatch(old_cells=cells, old_auxes=np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ConfigurationError):
            LineBatch(old_cells=cells, old_auxes=np.full((2, 8), -1, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            LineBatch(old_cells=cells, bits_per_cell=3)

    @pytest.mark.parametrize("container", [list, lambda rows: np.array(rows, dtype=object)])
    def test_aux_over_63_bits_rejected(self, container):
        # Aux fields are int64: a stored value of 2**63 is a configuration
        # error, not an OverflowError.
        with pytest.raises(ConfigurationError, match="63 bits"):
            LineBatch(
                old_cells=np.zeros((1, 2, 4), dtype=np.uint8),
                old_auxes=container([[1 << 63, 1]]),
            )

    def test_split_partitions(self, rng):
        old = rng.integers(0, 4, size=(2, 8, 32)).astype(np.uint8)
        stuck = rng.random((2, 8, 32)) < 0.1
        batch = LineBatch(old_cells=old, stuck_mask=stuck, bits_per_cell=2)
        split = batch.split_partitions(4)
        assert split.old_cells.shape == split.stuck_mask.shape == (2, 32, 8)
        assert np.array_equal(split.old_cells.reshape(2, 8, 32), old)
        assert not split.old_auxes.any()
        with pytest.raises(ConfigurationError):
            batch.split_partitions(5)


class TestAuxValidation:
    def test_zero_aux_bits_rejects_nonzero_aux(self):
        # Regression: aux=1 with aux_bits=0 used to slip through validation.
        with pytest.raises(ConfigurationError):
            EncodedWord(codeword=0, aux=1, aux_bits=0, cost=0.0, technique="x")

    def test_aux_must_fit_width(self):
        with pytest.raises(ConfigurationError):
            EncodedWord(codeword=0, aux=4, aux_bits=2, cost=0.0, technique="x")
        word = EncodedWord(codeword=0, aux=3, aux_bits=2, cost=0.0, technique="x")
        assert word.aux == 3

    def test_encoded_line_guards_aux(self):
        with pytest.raises(ConfigurationError):
            EncodedLine(
                codewords=(1, 2), auxes=(0, 1), aux_bits=0, costs=(0.0, 0.0), technique="x"
            )
        with pytest.raises(ConfigurationError):
            EncodedLine(
                codewords=(1, 2), auxes=(0, 4), aux_bits=2, costs=(0.0, 0.0), technique="x"
            )

    def test_encoded_line_shape_guards(self):
        with pytest.raises(ConfigurationError):
            EncodedLine(codewords=(1,), auxes=(0, 0), aux_bits=1, costs=(0.0,), technique="x")
        with pytest.raises(ConfigurationError):
            EncodedLine(codewords=(), auxes=(), aux_bits=1, costs=(), technique="x")

    def test_encoded_line_total_cost_and_views(self):
        line = EncodedLine(
            codewords=(1, 2), auxes=(0, 1), aux_bits=1, costs=(1.5, 2.5), technique="x"
        )
        assert line.cost == pytest.approx(4.0)
        assert line.words_per_line == 2
        assert line.word(1) == EncodedWord(
            codeword=2, aux=1, aux_bits=1, cost=2.5, technique="x"
        )


class TestCellMatrixHelpers:
    def test_words_matrix_round_trip(self, rng):
        words = rng.integers(0, 1 << 62, size=(3, 8), dtype=np.uint64)
        cells = words_matrix_to_cells(words, 64, 2)
        assert cells.shape == (3, 8, 32)
        for i in range(3):
            assert cells_matrix_to_words(cells[i], 2) == [int(w) for w in words[i]]

    def test_words_over_64_bits_rejected(self):
        # 64 MLC cells make a 128-bit word, which no uint64 holds.
        with pytest.raises(ConfigurationError, match="between 1 and 64"):
            cells_matrix_to_words(np.zeros((2, 64), dtype=np.uint8), 2)
