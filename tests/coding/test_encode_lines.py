"""Multi-line batch encoding: encode_lines vs. the scalar oracle.

The contract of :meth:`repro.coding.base.Encoder.encode_lines` is that the
returned codewords, auxiliary values, and costs are *bit-identical* to
calling :meth:`encode_line_scalar` (``encode`` per word) once per line —
for every registry encoder, both cell technologies, every builtin cost
objective, with and without stuck cells and stored auxiliary bits, on
single lines and multi-line batches.  ``encode_line`` is a one-line view
of ``encode_lines``, so this one matrix covers it too.  The same holds
one layer down for
:meth:`repro.coding.cost.CostFunction.batch_line_cell_costs` against
per-line :meth:`line_cell_costs` calls.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.coding.base import (
    EncodedWord,
    Encoder,
    LineContext,
    stack_line_contexts,
)
from repro.coding.cost import (
    BitChangeCost,
    CellChangeCost,
    CostFunction,
    EnergyCost,
    LexicographicCost,
    OnesCost,
    SawCost,
    energy_then_saw,
    saw_then_energy,
)
from repro.coding.registry import available_encoders, make_encoder
from repro.errors import ConfigurationError, EncodingError
from repro.pcm.cell import CellTechnology
from repro.pcm.energy import MLCEnergyModel, SLCEnergyModel
from repro.sim.harness import make_cost
from repro.utils.bitops import random_word
from repro.utils.rng import make_rng

WORDS_PER_LINE = 8
WORD_BITS = 64
LINES = 5

#: Write-time knowledge of the target rows: (stuck cells, stored auxes).
KNOWLEDGE = {"fault-free": (False, False), "stuck": (True, False), "stuck+aux": (True, True)}


def _contexts(rng, technology, encoder, lines=LINES, stuck=True, old_aux=True):
    cells = encoder.cells_per_word
    levels = technology.levels
    aux_limit = 1 << min(encoder.aux_bits, 62)
    contexts = []
    for _ in range(lines):
        contexts.append(
            LineContext(
                old_cells=rng.integers(0, levels, size=(WORDS_PER_LINE, cells)).astype(
                    np.uint8
                ),
                stuck_mask=(rng.random((WORDS_PER_LINE, cells)) < 0.02) if stuck else None,
                bits_per_cell=technology.bits_per_cell,
                old_auxes=rng.integers(0, aux_limit, size=WORDS_PER_LINE) if old_aux else None,
            )
        )
    return contexts


def _lines(rng, lines=LINES):
    return [
        [random_word(rng, WORD_BITS) for _ in range(WORDS_PER_LINE)]
        for _ in range(lines)
    ]


class TestEncodeLinesParity:
    @pytest.mark.parametrize("name", available_encoders())
    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    @pytest.mark.parametrize(
        "cost", ["ones", "bit-changes", "energy", "saw-then-energy", "energy-then-saw"]
    )
    @pytest.mark.parametrize("knowledge", list(KNOWLEDGE))
    def test_matches_scalar_oracle(self, name, technology, cost, knowledge):
        stuck, old_aux = KNOWLEDGE[knowledge]
        rng = make_rng(5, f"encode-lines-{name}-{technology.value}-{cost}-{knowledge}")
        # A single line (the encode_line view) and a multi-line batch, at
        # two coset counts so VCC sees different kernel counts.
        for lines, num_cosets in ((1, 32), (LINES, 16)):
            encoder = make_encoder(
                name,
                word_bits=WORD_BITS,
                num_cosets=num_cosets,
                technology=technology,
                cost_function=make_cost(cost, technology),
            )
            contexts = _contexts(rng, technology, encoder, lines, stuck, old_aux)
            words = _lines(rng, lines)
            batched = encoder.encode_lines(words, contexts)
            oracle = [
                encoder.encode_line_scalar(line, context)
                for line, context in zip(words, contexts)
            ]
            # EncodedLine equality compares codewords, auxes, aux_bits,
            # technique, and the float costs exactly (bit-identical).
            assert batched == oracle
            assert encoder.encode_line(words[0], contexts[0]) == oracle[0]

    @pytest.mark.parametrize("name", available_encoders())
    def test_decodes_back_to_data(self, name):
        rng = make_rng(6, f"decode-lines-{name}")
        encoder = make_encoder(name, word_bits=WORD_BITS, num_cosets=16)
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=2)
        lines = _lines(rng, lines=2)
        for line, encoded in zip(lines, encoder.encode_lines(lines, contexts)):
            assert encoder.decode_line(encoded.codewords, encoded.auxes) == line

    def test_accepts_ndarray_word_matrix(self):
        rng = make_rng(7, "ndarray-words")
        encoder = make_encoder("rcc", word_bits=WORD_BITS, num_cosets=16)
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=3)
        lines = _lines(rng, lines=3)
        matrix = np.array(lines, dtype=np.uint64)
        from_list = encoder.encode_lines(lines, contexts)
        from_array = encoder.encode_lines(matrix, contexts)
        assert [e.codewords for e in from_list] == [e.codewords for e in from_array]

    def test_third_party_encoder_uses_reference_loop(self):
        class XorEncoder(Encoder):
            """Minimal word-level-only encoder (no batch overrides)."""

            name = "xor-third-party"

            @property
            def aux_bits(self):
                return 0

            def encode(self, data, context):
                self._check_data(data)
                return EncodedWord(
                    codeword=data ^ 0x5A5A, aux=0, aux_bits=0, cost=1.0,
                    technique=self.name,
                )

            def decode(self, codeword, aux):
                return codeword ^ 0x5A5A

        encoder = XorEncoder(WORD_BITS, CellTechnology.MLC, BitChangeCost())
        rng = make_rng(8, "third-party")
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=2)
        lines = _lines(rng, lines=2)
        batched = encoder.encode_lines(lines, contexts)
        for line, encoded in zip(lines, batched):
            assert list(encoded.codewords) == [w ^ 0x5A5A for w in line]

    def test_line_count_mismatch_rejected(self):
        rng = make_rng(9, "mismatch")
        encoder = make_encoder("flipcy", word_bits=WORD_BITS)
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=2)
        with pytest.raises(EncodingError):
            encoder.encode_lines(_lines(rng, lines=3), contexts)
        with pytest.raises(EncodingError):
            encoder.encode_lines([], [])


class TestOutOfRangeWords:
    @pytest.mark.parametrize("name", available_encoders())
    @pytest.mark.parametrize("method", ["encode_line", "encode_lines"])
    @pytest.mark.parametrize("word", [-1, 1 << 64], ids=["negative", "2**64"])
    def test_raises_encoding_error(self, name, method, word):
        """Regression: encode_lines used to leak numpy's OverflowError."""
        encoder = make_encoder(name, word_bits=WORD_BITS, num_cosets=16)
        line = [word] + [0] * (WORDS_PER_LINE - 1)
        context = LineContext.blank(WORDS_PER_LINE, WORD_BITS, encoder.bits_per_cell)
        with pytest.raises(EncodingError, match=f"does not fit in {WORD_BITS} bits"):
            if method == "encode_line":
                encoder.encode_line(line, context)
            else:
                encoder.encode_lines([line], [context])


class _HardSawCost(CostFunction):
    """Third-party cellwise cost: rewriting a stuck cell costs +inf."""

    name = "hard-saw"
    cellwise = True

    def cell_costs_matrix(self, new_cells, context):
        new = np.asarray(new_cells)
        changed = new != context.old_cells[-new.shape[1]:][None, :]
        if context.stuck_mask is None:
            return changed.astype(np.float64)
        stuck = context.stuck_mask[-new.shape[1]:][None, :]
        return np.where(changed & stuck, np.inf, changed.astype(np.float64))


def _rcc_costs(technology):
    """Costs whose transition tables rule the exact GEMM in or out."""
    return {
        # Builtins at their default energy models: integer-valued tables.
        "energy": (EnergyCost(technology), True),
        "saw-then-energy": (saw_then_energy(technology), True),
        "cell-changes": (CellChangeCost(), True),
        # Fractional table entries.
        "fractional-lut": (
            EnergyCost(
                technology,
                mlc_model=MLCEnergyModel(low_energy_pj=2.3, high_energy_pj=19.7),
                slc_model=SLCEnergyModel(set_energy_pj=1.3, reset_energy_pj=2.7),
            ),
            False,
        ),
        "lex-scale-0.37": (LexicographicCost(SawCost(), EnergyCost(technology), 0.37), False),
        # +inf entries: inf * 0.0 would be NaN inside a GEMM.
        "inf-entries": (_HardSawCost(), False),
        # Integer entries, but max|entry| * cells >= 2**53.
        "huge-entries": (LexicographicCost(EnergyCost(technology), BitChangeCost(), 2.0**48), False),
    }


class TestRCCScoringPaths:
    """RCC scores cosets by one GEMM only where that is exact."""

    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    @pytest.mark.parametrize("cost_name", list(_rcc_costs(CellTechnology.MLC)))
    def test_matches_scalar_oracle_on_either_path(self, technology, cost_name):
        cost, takes_gemm = _rcc_costs(technology)[cost_name]
        encoder = make_encoder(
            "rcc", word_bits=WORD_BITS, num_cosets=32, technology=technology, cost_function=cost
        )
        rng = make_rng(15, f"rcc-paths-{technology.value}-{cost_name}")
        contexts = _contexts(rng, technology, encoder)
        words = _lines(rng)
        gemms = obs.counter("encode.kernel_gemms")
        candidates = obs.counter("encode.candidates")
        gemms_before, candidates_before = gemms.value, candidates.value
        batched = encoder.encode_lines(words, contexts)
        assert gemms.value - gemms_before == int(takes_gemm)
        assert candidates.value - candidates_before == LINES * encoder.num_cosets
        oracle = [
            encoder.encode_line_scalar(line, context) for line, context in zip(words, contexts)
        ]
        assert batched == oracle


ALL_COSTS = [
    OnesCost(),
    BitChangeCost(),
    CellChangeCost(),
    EnergyCost(CellTechnology.MLC),
    SawCost(),
    saw_then_energy(CellTechnology.MLC),
    energy_then_saw(CellTechnology.MLC),
]


class TestBatchLineCellCosts:
    @pytest.mark.parametrize("cost", ALL_COSTS, ids=lambda c: c.name)
    @pytest.mark.parametrize("with_stuck", [True, False])
    def test_matches_per_line_kernel(self, cost, with_stuck):
        rng = make_rng(11, f"batch-costs-{cost.name}-{with_stuck}")
        lines, candidates, words, cells = 4, 6, 8, 32
        new_cells = rng.integers(0, 4, size=(lines, candidates, words, cells)).astype(
            np.uint8
        )
        contexts = [
            LineContext(
                old_cells=rng.integers(0, 4, size=(words, cells)).astype(np.uint8),
                stuck_mask=(rng.random((words, cells)) < 0.05) if with_stuck else None,
                bits_per_cell=2,
            )
            for _ in range(lines)
        ]
        batched = cost.batch_line_cell_costs(new_cells, contexts)
        assert batched.shape == new_cells.shape
        for index, context in enumerate(contexts):
            per_line = cost.line_cell_costs(new_cells[index], context)
            assert np.array_equal(
                np.asarray(batched[index], dtype=np.float64),
                np.asarray(per_line, dtype=np.float64),
            )

    def test_non_cellwise_cost_falls_back_to_loop(self):
        class WeirdCost(CostFunction):
            """Depends on the whole candidate word: not cellwise."""

            name = "weird"

            def cell_costs_matrix(self, new_cells, context):
                new = np.asarray(new_cells, dtype=np.float64)
                return new + new.sum(axis=1, keepdims=True)

        cost = WeirdCost()
        assert not cost.cellwise
        assert cost.transition_tables([LineContext.blank()]) is None
        rng = make_rng(12, "weird-cost")
        new_cells = rng.integers(0, 4, size=(3, 2, 8, 32)).astype(np.uint8)
        contexts = [LineContext.blank() for _ in range(3)]
        batched = cost.batch_line_cell_costs(new_cells, contexts)
        for index, context in enumerate(contexts):
            assert np.array_equal(batched[index], cost.line_cell_costs(new_cells[index], context))

    def test_transition_tables_match_elementwise_pipeline(self):
        cost = saw_then_energy(CellTechnology.MLC)
        rng = make_rng(13, "tables")
        contexts = [
            LineContext(
                old_cells=rng.integers(0, 4, size=(8, 32)).astype(np.uint8),
                stuck_mask=rng.random((8, 32)) < 0.05,
                bits_per_cell=2,
            )
            for _ in range(2)
        ]
        tables = cost.transition_tables(contexts)
        assert tables.shape == (2, 8, 32, 4)
        for line, context in enumerate(contexts):
            for value in range(4):
                plane = np.full((1, 8, 32), value, dtype=np.uint8)
                expected = cost.line_cell_costs(plane, context)[0]
                assert np.array_equal(tables[line, :, :, value], expected)

    def test_shape_validation(self):
        cost = OnesCost()
        with pytest.raises(ConfigurationError):
            cost.batch_line_cell_costs(np.zeros((2, 8, 32), dtype=np.uint8), [])
        with pytest.raises(ConfigurationError):
            cost.batch_line_cell_costs(
                np.zeros((2, 3, 8, 32), dtype=np.uint8), [LineContext.blank()]
            )


class TestStackAndSplitHelpers:
    def test_stack_line_contexts_concatenates_words(self):
        rng = make_rng(14, "stack")
        contexts = [
            LineContext(
                old_cells=rng.integers(0, 4, size=(4, 16)).astype(np.uint8),
                stuck_mask=rng.random((4, 16)) < 0.1,
                bits_per_cell=2,
                old_auxes=rng.integers(0, 8, size=4),
            )
            for _ in range(3)
        ]
        stacked = stack_line_contexts(contexts)
        assert stacked.words_per_line == 12
        assert np.array_equal(
            stacked.old_cells, np.concatenate([c.old_cells for c in contexts])
        )
        assert np.array_equal(
            stacked.stuck_mask, np.concatenate([c.stuck_mask for c in contexts])
        )
        assert np.array_equal(
            stacked.old_auxes, np.concatenate([c.old_auxes for c in contexts])
        )

    def test_stack_rejects_mixed_geometry(self):
        narrow = LineContext.blank(words_per_line=4)
        wide = LineContext.blank(words_per_line=8)
        with pytest.raises(ConfigurationError):
            stack_line_contexts([narrow, wide])
        with pytest.raises(ConfigurationError):
            stack_line_contexts([])

    def test_empty_batch_rejected_by_cost_kernel(self):
        cost = BitChangeCost()
        with pytest.raises(ConfigurationError):
            cost.batch_line_cell_costs(np.zeros((0, 3, 8, 32), dtype=np.uint8), [])
