"""Multi-line batch encoding: encode_lines vs. the scalar oracle.

The contract of :meth:`repro.coding.base.Encoder.encode_lines` is that the
codewords, auxiliary values, and costs of every line of the returned
:class:`repro.coding.base.EncodedBatch` are *bit-identical* to
calling :meth:`encode_line_scalar` (``encode`` per word) once per line —
for every registry encoder, both cell technologies, every builtin cost
objective, with and without stuck cells and stored auxiliary bits, on
single lines and multi-line batches.  ``encode_line`` is a one-line view
of ``encode_lines``, so this one matrix covers it too.  The same holds
one layer down for
:meth:`repro.coding.cost.CostFunction.batch_line_cell_costs` on a
:class:`repro.coding.base.LineBatch` against per-word
:meth:`cell_costs_matrix` calls.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.coding.base import (
    EncodedBatch,
    EncodedWord,
    Encoder,
    LineBatch,
    LineContext,
)
from repro.coding.cost import (
    AUX_TABLE_MAX_BITS,
    BitChangeCost,
    CellChangeCost,
    CostFunction,
    EnergyCost,
    LexicographicCost,
    OnesCost,
    SawCost,
    _folded_rows,
    energy_then_saw,
    saw_then_energy,
)
from repro.coding.registry import available_encoders, make_encoder
from repro.core.config import EncodeRegion, VCCConfig
from repro.core.kernels import StoredKernelProvider
from repro.core.vcc import VCCEncoder
from repro.errors import ConfigurationError, EncodingError
from repro.pcm.cell import CellTechnology
from repro.pcm.energy import MLCEnergyModel, SLCEnergyModel
from repro.sim.harness import make_cost
from repro.utils.bitops import interleave_planes, random_word
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
        "cost",
        [
            "ones",
            "bit-changes",
            "cell-changes",
            "energy",
            "saw",
            "saw-then-energy",
            "energy-then-saw",
        ],
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
            batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
            oracle = [
                encoder.encode_line_scalar(line, context)
                for line, context in zip(words, contexts)
            ]
            # EncodedLine equality compares codewords, auxes, aux_bits,
            # technique, and the float costs exactly (bit-identical).
            assert len(batched) == lines
            assert list(batched) == oracle
            assert encoder.encode_line(words[0], contexts[0]) == oracle[0]

    @pytest.mark.parametrize("name", available_encoders())
    def test_decodes_back_to_data(self, name):
        rng = make_rng(6, f"decode-lines-{name}")
        encoder = make_encoder(name, word_bits=WORD_BITS, num_cosets=16)
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=2)
        lines = _lines(rng, lines=2)
        batched = encoder.encode_lines(lines, LineBatch.from_lines(contexts))
        for line, encoded in zip(lines, batched):
            assert encoder.decode_line(encoded.codewords, encoded.auxes) == line

    def test_accepts_ndarray_word_matrix(self):
        rng = make_rng(7, "ndarray-words")
        encoder = make_encoder("rcc", word_bits=WORD_BITS, num_cosets=16)
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=3)
        lines = _lines(rng, lines=3)
        matrix = np.array(lines, dtype=np.uint64)
        batch = LineBatch.from_lines(contexts)
        from_list = encoder.encode_lines(lines, batch)
        from_array = encoder.encode_lines(matrix, batch)
        assert np.array_equal(from_list.codewords, from_array.codewords)
        assert from_array.codewords.shape == (3, WORDS_PER_LINE)

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
        batched = encoder.encode_lines(lines, LineBatch.from_lines(contexts))
        assert batched.codewords.tolist() == [[w ^ 0x5A5A for w in line] for line in lines]

    def test_line_count_mismatch_rejected(self):
        rng = make_rng(9, "mismatch")
        encoder = make_encoder("flipcy", word_bits=WORD_BITS)
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=2)
        with pytest.raises(EncodingError):
            encoder.encode_lines(_lines(rng, lines=3), LineBatch.from_lines(contexts))
        with pytest.raises(EncodingError):
            encoder.encode_lines([], LineBatch.from_lines(contexts))
        # The boundary takes one LineBatch, not a list of per-line contexts.
        with pytest.raises(EncodingError, match="LineBatch"):
            encoder.encode_lines(_lines(rng, lines=2), contexts)


class _OutOfRangeAuxEncoder(Encoder):
    """Third-party encoder whose batch path returns a 3 in a 1-bit aux."""

    name = "bad-aux"

    @property
    def aux_bits(self):
        return 1

    def encode(self, data, context):
        return EncodedWord(codeword=data, aux=0, aux_bits=1, cost=0.0, technique=self.name)

    def encode_lines(self, words, batch):
        values = self._check_lines_batch(words, batch)
        return self._encoded(values, np.full(values.shape, 3), np.zeros(values.shape))

    def decode(self, codeword, aux):
        return codeword


class TestEncodedBatch:
    def test_out_of_range_aux_from_encode_lines_rejected(self):
        encoder = _OutOfRangeAuxEncoder(WORD_BITS, CellTechnology.MLC, BitChangeCost())
        batch = LineBatch.from_lines([LineContext.blank(WORDS_PER_LINE, WORD_BITS)])
        with pytest.raises(ConfigurationError, match="aux value 3 does not fit in 1 bits"):
            encoder.encode_lines([[0] * WORDS_PER_LINE], batch)

    def test_columns_and_line_views(self):
        rng = make_rng(10, "encoded-batch")
        encoder = make_encoder("vcc", word_bits=WORD_BITS, num_cosets=16)
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=3)
        words = _lines(rng, lines=3)
        result = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        assert len(result) == 3
        for array in (result.codewords, result.auxes, result.costs):
            assert array.shape == (3, WORDS_PER_LINE)
        assert result.costs.dtype == np.float64
        assert result[2].codewords == tuple(result.codewords[2].tolist())
        assert result[-1] == result[2]
        assert [line.technique for line in result] == [encoder.name] * 3

    def test_shape_guards(self):
        with pytest.raises(ConfigurationError):
            EncodedBatch(
                codewords=np.zeros((2, 3), np.uint64), auxes=np.zeros((2, 2), np.int64),
                aux_bits=1, costs=np.zeros((2, 3)), technique="x",
            )
        with pytest.raises(ConfigurationError):
            EncodedBatch(
                codewords=np.zeros((0, 3), np.uint64), auxes=np.zeros((0, 3), np.int64),
                aux_bits=1, costs=np.zeros((0, 3)), technique="x",
            )


#: Candidates every builtin scores per word at 256 cosets on 64-bit MLC
#: words: ``encode.candidates`` counts lines x this, for every encoder.
CANDIDATES_PER_WORD = {
    "unencoded": 1,
    "dbi": 2,
    "fnw": 2,
    "dbi/fnw": 2,
    "bcc": 2,
    "flipcy": 3,
    "rcc": 256,
    "vcc": 32,
    "vcc-stored": 32,
}


class TestCandidateCounter:
    @pytest.mark.parametrize("name", available_encoders())
    @pytest.mark.parametrize("lines", [1, 8])
    def test_counts_lines_times_candidates_per_word(self, name, lines):
        encoder = make_encoder(name, word_bits=WORD_BITS, num_cosets=256)
        rng = make_rng(17, f"candidates-{name}-{lines}")
        batch = LineBatch.from_lines(_contexts(rng, CellTechnology.MLC, encoder, lines))
        candidates = obs.counter("encode.candidates")
        before = candidates.value
        encoder.encode_lines(_lines(rng, lines), batch)
        assert candidates.value - before == lines * CANDIDATES_PER_WORD[name]


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
                encoder.encode_lines([line], LineBatch.from_lines([context]))

    @pytest.mark.parametrize("name", available_encoders())
    def test_negative_signed_array_raises(self, name):
        """Regression: a negative int64 word used to wrap to 2**64 - 1."""
        encoder = make_encoder(name, word_bits=WORD_BITS, num_cosets=16)
        context = LineContext.blank(WORDS_PER_LINE, WORD_BITS, encoder.bits_per_cell)
        words = np.full((1, WORDS_PER_LINE), -1, dtype=np.int64)
        with pytest.raises(EncodingError, match=f"does not fit in {WORD_BITS} bits"):
            encoder.encode_lines(words, LineBatch.from_lines([context]))


class _RewriteCost(CostFunction):
    """Third-party cost with the base class's aux hooks: changing a cell
    costs ``free``, or ``stuck`` if the cell is stuck."""

    def __init__(self, free, stuck):
        self.name = f"rewrite-{free:g}-{stuck:g}"
        self.free, self.stuck = free, stuck

    def cell_table(self, bits_per_cell):
        old, new = np.indices((2**bits_per_cell,) * 2)
        changed = old != new
        return np.stack([np.where(changed, self.free, 0.0), np.where(changed, self.stuck, 0.0)])


#: Costs whose cell tables break the integer contract:
#: name -> (build(technology), error pattern).
_REJECTED_COSTS = {
    "fractional-lut": (
        lambda technology: EnergyCost(
            technology,
            mlc_model=MLCEnergyModel(low_energy_pj=2.3, high_energy_pj=19.7),
            slc_model=SLCEnergyModel(set_energy_pj=1.3, reset_energy_pj=2.7),
        ),
        "finite integers",
    ),
    "fractional-scale": (
        lambda technology: LexicographicCost(SawCost(), EnergyCost(technology), 0.37),
        "finite integers",
    ),
    "inf-free-half": (
        lambda technology: _RewriteCost(np.inf, 1.0),
        "finite integers",
    ),
    # Finite wherever a fault-free row reads: the whole table is checked.
    "inf-stuck-half": (
        lambda technology: _RewriteCost(1.0, np.inf),
        "finite integers",
    ),
    # Integer entries, but 2 * cells * max|entry| >= 2**53.
    "over-bound": (
        lambda technology: LexicographicCost(EnergyCost(technology), BitChangeCost(), 2.0**48),
        r"2\*\*53",
    ),
}


class TestIntegerTableContract:
    """Cost tables that matrix products could not sum exactly fail at construction."""

    @pytest.mark.parametrize("name", available_encoders())
    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    @pytest.mark.parametrize("cost_name", list(_REJECTED_COSTS))
    def test_make_encoder_rejects(self, name, technology, cost_name):
        build, pattern = _REJECTED_COSTS[cost_name]
        with pytest.raises(ConfigurationError, match=pattern):
            make_encoder(
                name, word_bits=WORD_BITS, num_cosets=32, technology=technology,
                cost_function=build(technology),
            )

    @pytest.mark.parametrize("name", ["unencoded", "rcc", "vcc", "vcc-stored"])
    def test_bound_is_two_sums_of_every_cell(self, name):
        # 64-bit MLC words hold 32 cells: 2 * 32 * 2**47 is exactly 2**53.
        def build(largest):
            return make_encoder(
                name, word_bits=WORD_BITS, num_cosets=32, technology=CellTechnology.MLC,
                cost_function=_RewriteCost(1.0, largest),
            )

        with pytest.raises(ConfigurationError, match=r"2\*\*53"):
            build(2.0**47)
        encoder = build(2.0**47 - 1)
        rng = make_rng(14, f"bound-edge-{name}")
        contexts = _contexts(rng, CellTechnology.MLC, encoder, stuck=True)
        words = _lines(rng)
        batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        assert list(batched) == [
            encoder.encode_line_scalar(line, context) for line, context in zip(words, contexts)
        ]


def _integer_costs(technology):
    """Builtin costs at their default energy models: integer-valued tables."""
    return {
        "energy": EnergyCost(technology),
        "saw-then-energy": saw_then_energy(technology),
        "cell-changes": CellChangeCost(),
    }


class TestRCCScoringPaths:
    """RCC scores every coset of a batch with one matrix product."""

    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    @pytest.mark.parametrize("cost_name", list(_integer_costs(CellTechnology.MLC)))
    def test_matches_scalar_oracle(self, technology, cost_name):
        encoder = make_encoder(
            "rcc", word_bits=WORD_BITS, num_cosets=32, technology=technology,
            cost_function=_integer_costs(technology)[cost_name],
        )
        rng = make_rng(15, f"rcc-paths-{technology.value}-{cost_name}")
        contexts = _contexts(rng, technology, encoder)
        words = _lines(rng)
        candidates = obs.counter("encode.candidates")
        before = candidates.value
        batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        assert candidates.value - before == LINES * encoder.num_cosets
        oracle = [
            encoder.encode_line_scalar(line, context) for line, context in zip(words, contexts)
        ]
        assert list(batched) == oracle


#: VCC encoders by scoring shape: name -> build(technology, cost).
_VCC_SHAPES = {
    "vcc": lambda technology, cost: make_encoder(
        "vcc", word_bits=WORD_BITS, num_cosets=32, technology=technology, cost_function=cost,
    ),
    "vcc-stored": lambda technology, cost: make_encoder(
        "vcc-stored", word_bits=WORD_BITS, num_cosets=32, technology=technology,
        cost_function=cost,
    ),
    "right-plane-stored": lambda technology, cost: VCCEncoder(
        VCCConfig(
            word_bits=WORD_BITS, kernel_bits=8, num_kernels=4, technology=technology,
            encode_region=EncodeRegion.RIGHT_PLANE, stored_kernels=True,
        ),
        cost_function=cost,
        kernel_provider=StoredKernelProvider(8, 4, seed=3),
    ),
}

_VCC_CASES = [
    ("vcc", CellTechnology.MLC),
    ("vcc-stored", CellTechnology.MLC),
    ("vcc-stored", CellTechnology.SLC),
    ("right-plane-stored", CellTechnology.MLC),
]


class TestVCCScoringPaths:
    """VCC scores the partitions of a batch with one matrix product, in either shape."""

    @pytest.mark.parametrize(
        "shape,technology", _VCC_CASES, ids=[f"{s}-{t.value}" for s, t in _VCC_CASES]
    )
    @pytest.mark.parametrize("cost_name", list(_integer_costs(CellTechnology.MLC)))
    def test_matches_scalar_oracle(self, shape, technology, cost_name):
        encoder = _VCC_SHAPES[shape](technology, _integer_costs(technology)[cost_name])
        rng = make_rng(16, f"vcc-paths-{shape}-{technology.value}-{cost_name}")
        contexts = _contexts(rng, technology, encoder)
        words = _lines(rng)
        candidates = obs.counter("encode.candidates")
        before = candidates.value
        batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        assert candidates.value - before == LINES * 2 * encoder.config.num_kernels
        oracle = [
            encoder.encode_line_scalar(line, context) for line, context in zip(words, contexts)
        ]
        assert list(batched) == oracle

    @pytest.mark.parametrize("technology", [CellTechnology.MLC, CellTechnology.SLC])
    @pytest.mark.parametrize("cost_name", ["bit-changes", "energy-then-saw", "saw-then-energy"])
    @pytest.mark.parametrize("num_kernels", [2, 4, 16])
    def test_64_bit_kernels_match_scalar_oracle(self, technology, cost_name, num_kernels):
        # One partition of the full word: every kernel is 64 bits wide, so
        # the oracle must hold kernels and sub-blocks as uint64.
        encoder = VCCEncoder(
            VCCConfig.for_cosets(
                2 * num_kernels, technology=technology, stored_kernels=True, partitions=1
            ),
            cost_function=make_cost(cost_name, technology),
        )
        assert encoder.config.kernel_bits == 64
        rng = make_rng(18, f"vcc-64-bit-kernels-{technology.value}-{cost_name}-{num_kernels}")
        contexts = _contexts(rng, technology, encoder, lines=20)
        words = _lines(rng, lines=20)
        batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        oracle = [
            encoder.encode_line_scalar(line, context) for line, context in zip(words, contexts)
        ]
        assert list(batched) == oracle
        for line, encoded in zip(words, oracle):
            assert encoder.decode_line(encoded.codewords, encoded.auxes) == line


#: Every builtin cost with the ``bits_per_cell`` of the cells it scores.
ALL_COSTS = [
    (OnesCost(), 2),
    (BitChangeCost(), 2),
    (CellChangeCost(), 2),
    (EnergyCost(CellTechnology.MLC), 2),
    (SawCost(), 2),
    (saw_then_energy(CellTechnology.MLC), 2),
    (energy_then_saw(CellTechnology.MLC), 2),
    (EnergyCost(CellTechnology.SLC), 1),
    (saw_then_energy(CellTechnology.SLC), 1),
    (energy_then_saw(CellTechnology.SLC), 1),
]
_ALL_COST_IDS = [cost.name + ("" if bits == 2 else "-slc") for cost, bits in ALL_COSTS]


def _random_line_contexts(rng, lines, words, cells, bits_per_cell, with_stuck):
    return [
        LineContext(
            old_cells=rng.integers(0, 2**bits_per_cell, size=(words, cells)).astype(np.uint8),
            stuck_mask=(rng.random((words, cells)) < 0.05) if with_stuck else None,
            bits_per_cell=bits_per_cell,
        )
        for _ in range(lines)
    ]


class TestBatchLineCellCosts:
    @pytest.mark.parametrize("cost,bits_per_cell", ALL_COSTS, ids=_ALL_COST_IDS)
    @pytest.mark.parametrize("with_stuck", [True, False])
    def test_matches_per_line_kernel(self, cost, bits_per_cell, with_stuck):
        # Each line of the batched gather equals the scalar oracle per word.
        rng = make_rng(11, f"batch-costs-{cost.name}-{bits_per_cell}-{with_stuck}")
        lines, candidates, words = 4, 6, 8
        cells = WORD_BITS // bits_per_cell
        new_cells = rng.integers(
            0, 2**bits_per_cell, size=(lines, candidates, words, cells)
        ).astype(np.uint8)
        contexts = _random_line_contexts(rng, lines, words, cells, bits_per_cell, with_stuck)
        batched = cost.batch_line_cell_costs(new_cells, LineBatch.from_lines(contexts))
        assert batched.shape == new_cells.shape
        for index, context in enumerate(contexts):
            for word in range(words):
                expected = cost.cell_costs_matrix(
                    new_cells[index, :, word], context.word_context(word)
                )
                assert np.array_equal(batched[index, :, word], expected)

    @pytest.mark.parametrize("cost,bits_per_cell", ALL_COSTS, ids=_ALL_COST_IDS)
    def test_folded_rows_match_elementwise_pipeline(self, cost, bits_per_cell):
        # Row _folded_rows(batch, data) of the folded table, at column v, is
        # what the scalar oracle charges for writing data ^ v to that cell.
        rng = make_rng(13, f"tables-{cost.name}-{bits_per_cell}")
        levels, cells = 2**bits_per_cell, WORD_BITS // bits_per_cell
        contexts = _random_line_contexts(rng, 2, 8, cells, bits_per_cell, with_stuck=True)
        data = rng.integers(0, levels, size=(2 * 8, cells)).astype(np.uint8)
        rows = _folded_rows(LineBatch.from_lines(contexts), data)
        folded = np.take(cost._folded_table(bits_per_cell), rows, axis=0)
        assert folded.shape == (2 * 8, cells, levels)
        masks = np.repeat(np.arange(levels, dtype=np.uint8)[:, None], cells, axis=1)
        for line, context in enumerate(contexts):
            for word in range(8):
                expected = cost.cell_costs_matrix(
                    data[line * 8 + word] ^ masks, context.word_context(word)
                )
                assert np.array_equal(folded[line * 8 + word].T, expected)

    def test_shape_validation(self):
        cost = OnesCost()
        one_line = LineBatch.from_lines([LineContext.blank()])
        with pytest.raises(ConfigurationError):
            cost.batch_line_cell_costs(np.zeros((2, 8, 32), dtype=np.uint8), one_line)
        with pytest.raises(ConfigurationError):
            cost.batch_line_cell_costs(np.zeros((2, 3, 8, 32), dtype=np.uint8), one_line)
        # Words and cells must match the batch's geometry too.
        with pytest.raises(ConfigurationError):
            cost.batch_line_cell_costs(np.zeros((1, 3, 4, 32), dtype=np.uint8), one_line)

    def test_empty_batch_rejected_by_cost_kernel(self):
        cost = BitChangeCost()
        with pytest.raises(ConfigurationError):
            cost.batch_line_cell_costs(
                np.zeros((0, 3, 8, 32), dtype=np.uint8),
                LineBatch.from_lines([LineContext.blank()]),
            )


class _MixedAuxCost(CostFunction):
    """Third-party cost that overrides only the scalar ``aux_cost``."""

    name = "mixed-aux"

    def cell_table(self, bits_per_cell):
        old, new = np.indices((2**bits_per_cell,) * 2)
        return np.stack([old != new] * 2)

    def aux_cost(self, new_aux, old_aux, aux_bits):
        del aux_bits
        return float((3 * new_aux + old_aux) % 7)


def _derived_keys(cost, kind):
    """Keys of the derived tables of one kind a cost has cached."""
    return [key for key in cost.__dict__.get("_derived_tables", {}) if key[0] == kind]


#: Every builtin cost plus the two third-party shapes of the aux contract.
_AUX_COSTS = [cost for cost, _ in ALL_COSTS] + [_MixedAuxCost(), _RewriteCost(2.0, 100.0)]


class TestDerivedTables:
    """The folded and aux tables are re-indexings of the costs' own hooks."""

    @pytest.mark.parametrize(
        "cost,bits_per_cell",
        ALL_COSTS + [(_RewriteCost(2.0, 100.0), 1), (_RewriteCost(2.0, 100.0), 2)],
        ids=_ALL_COST_IDS + ["rewrite-slc", "rewrite"],
    )
    def test_folded_entry_is_cell_table_at_mask_xor_data(self, cost, bits_per_cell):
        levels = 2**bits_per_cell
        table = np.asarray(cost.cell_table(bits_per_cell), dtype=np.float64)
        folded = cost._folded_table(bits_per_cell)
        assert folded.shape == (2 * levels * levels, levels)
        assert not folded.flags.writeable
        for stuck, old, data, value in np.ndindex(2, levels, levels, levels):
            entry = folded[(stuck * levels + old) * levels + data, value]
            assert entry == table[stuck, old, value ^ data]

    @pytest.mark.parametrize("cost", _AUX_COSTS, ids=[c.name for c in _AUX_COSTS])
    @pytest.mark.parametrize("aux_bits", [1, 4, AUX_TABLE_MAX_BITS])
    def test_aux_table_matches_aux_costs_matrix(self, cost, aux_bits):
        values = np.arange(2**aux_bits, dtype=np.int64)
        table = cost._aux_table(aux_bits, values)
        assert table.shape == (values.size, values.size)
        assert not table.flags.writeable
        # One (values, 1) call per stored value: a different layout from
        # the single call that built the table.
        for old in values:
            row = cost.aux_costs_matrix(values[:, None], np.array([old]), aux_bits)[:, 0]
            assert np.array_equal(table[old], row)

    @pytest.mark.parametrize("cost", _AUX_COSTS, ids=[c.name for c in _AUX_COSTS])
    def test_aux_table_matches_per_pair_calls(self, cost):
        # (1, 1) calls: an energy-first lexicographic cost sees an all-zero
        # primary on the diagonal and takes its .any() short-circuit there.
        aux_bits = 4
        table = cost._aux_table(aux_bits, np.zeros(1, dtype=np.int64))
        for old, new in np.ndindex(table.shape):
            pair = cost.aux_costs_matrix(np.array([[new]]), np.array([old]), aux_bits)
            assert table[old, new] == pair[0, 0] == cost.aux_cost(new, old, aux_bits)

    def test_all_zero_primary_short_circuits_in_the_table(self):
        cost = saw_then_energy(CellTechnology.MLC)
        values = np.arange(2**AUX_TABLE_MAX_BITS, dtype=np.int64)
        assert not cost.primary._aux_table(AUX_TABLE_MAX_BITS, values).any()
        assert np.array_equal(
            cost._aux_table(AUX_TABLE_MAX_BITS, values),
            cost.secondary._aux_table(AUX_TABLE_MAX_BITS, values),
        )

    def test_aux_costs_match_matrix_and_fall_back_out_of_range(self):
        cost = energy_then_saw(CellTechnology.MLC)
        rng = make_rng(21, "aux-costs")
        new = rng.integers(0, 16, size=(6, 9))
        for old in (rng.integers(0, 16, size=9), np.array([17] + [0] * 8)):
            assert np.array_equal(cost._aux_costs(new, old, 4), cost.aux_costs_matrix(new, old, 4))
        # A stored value wider than the field rules the table out.
        assert cost._aux_table(4, np.array([16])) is None

    def test_wide_fields_are_not_tabulated(self):
        cost = BitChangeCost()
        assert cost._aux_table(AUX_TABLE_MAX_BITS + 1, np.zeros(1, dtype=np.int64)) is None
        assert _derived_keys(cost, "aux") == []

    def test_tables_are_kept_per_instance(self):
        cost = EnergyCost(CellTechnology.MLC)
        assert cost._folded_table(2) is cost._folded_table(2)
        zeros = np.zeros(1, dtype=np.int64)
        assert cost._aux_table(8, zeros) is cost._aux_table(8, zeros)
        assert EnergyCost(CellTechnology.MLC)._folded_table(2) is not cost._folded_table(2)


class TestTableDrivenScoring:
    """RCC, VCC and FNW read the derived tables and stay on the oracle."""

    def test_wide_aux_rcc_matches_oracle_without_an_aux_table(self):
        cost = saw_then_energy(CellTechnology.MLC)
        encoder = make_encoder(
            "rcc", word_bits=WORD_BITS, num_cosets=1024, technology=CellTechnology.MLC,
            cost_function=cost,
        )
        assert encoder.aux_bits == 10
        rng = make_rng(17, "rcc-wide-aux")
        contexts = _contexts(rng, CellTechnology.MLC, encoder, lines=2)
        words = _lines(rng, lines=2)
        batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        assert list(batched) == [
            encoder.encode_line_scalar(line, context) for line, context in zip(words, contexts)
        ]
        assert _derived_keys(cost, "aux") == []

    @pytest.mark.parametrize("name", ["rcc", "vcc", "vcc-stored", "fnw", "flipcy"])
    def test_scalar_aux_cost_override_matches_oracle(self, name):
        encoder = make_encoder(
            name, word_bits=WORD_BITS, num_cosets=32, technology=CellTechnology.MLC,
            cost_function=_MixedAuxCost(),
        )
        rng = make_rng(18, f"mixed-aux-{name}")
        contexts = _contexts(rng, CellTechnology.MLC, encoder)
        words = _lines(rng)
        batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        assert list(batched) == [
            encoder.encode_line_scalar(line, context) for line, context in zip(words, contexts)
        ]
        assert _derived_keys(encoder.cost_function, "aux") == [("aux", encoder.aux_bits)]


class _FreeAuxBitChangeCost(BitChangeCost):
    """Bit changes on data cells; storing any aux value costs nothing."""

    name = "free-aux-bit-changes"

    def aux_cost(self, new_aux, old_aux, aux_bits):
        del new_aux, old_aux, aux_bits
        return 0.0

    def aux_costs_matrix(self, new_auxes, old_auxes, aux_bits):
        del old_auxes, aux_bits
        return np.zeros(np.shape(new_auxes))


class _ZeroCost(_FreeAuxBitChangeCost):
    """Every cell and aux value costs nothing: every margin and total ties."""

    name = "zero"

    def cell_table(self, bits_per_cell):
        return np.zeros((2,) + (2**bits_per_cell,) * 2)


def _encode_per_word(encoder, words, contexts):
    """``encode`` on every word: (codewords, auxes, costs as uint64 bits)."""
    results = [
        encoder.encode(data, context.word_context(word))
        for line, context in zip(words, contexts)
        for word, data in enumerate(line)
    ]
    return (
        [result.codeword for result in results],
        [result.aux for result in results],
        np.array([result.cost for result in results]).view(np.uint64).tolist(),
    )


def _batched(result):
    """An EncodedBatch flattened like :func:`_encode_per_word`."""
    return (
        [int(value) for value in result.codewords.reshape(-1)],
        [int(value) for value in result.auxes.reshape(-1)],
        np.asarray(result.costs, dtype=np.float64).reshape(-1).view(np.uint64).tolist(),
    )


def _right_plane_vcc(kernel_bits, num_kernels, cost, kernels=None):
    """A right-plane VCC: generated kernels, or a ROM of ``kernels``."""
    config = VCCConfig(
        word_bits=WORD_BITS, kernel_bits=kernel_bits, num_kernels=num_kernels,
        technology=CellTechnology.MLC, encode_region=EncodeRegion.RIGHT_PLANE,
        stored_kernels=kernels is not None,
    )
    provider = (
        None if kernels is None
        else StoredKernelProvider(kernel_bits, num_kernels, kernels=kernels)
    )
    return VCCEncoder(config, cost_function=cost, kernel_provider=provider)


class TestVCCSelection:
    """Word-major flags, argmin and one-mask assembly against ``encode`` per word."""

    @pytest.mark.parametrize("name", ["vcc", "vcc-stored"])
    @pytest.mark.parametrize("cost,bits_per_cell", ALL_COSTS, ids=_ALL_COST_IDS)
    @pytest.mark.parametrize("with_stuck", [True, False])
    def test_matches_encode_per_word(self, name, cost, bits_per_cell, with_stuck):
        technology = CellTechnology.MLC if bits_per_cell == 2 else CellTechnology.SLC
        encoder = make_encoder(
            name, word_bits=WORD_BITS, num_cosets=64, technology=technology,
            cost_function=cost,
        )
        rng = make_rng(21, f"vcc-select-{name}-{cost.name}-{bits_per_cell}-{with_stuck}")
        contexts = _contexts(rng, technology, encoder, stuck=with_stuck)
        words = _lines(rng)
        batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        assert _batched(batched) == _encode_per_word(encoder, words, contexts)

    @pytest.mark.parametrize("kernel_bits", [8, 16])
    def test_zero_margins_keep_the_xor_form_of_the_first_kernel(self, kernel_bits):
        # Every margin is 0 and every total ties: flag 0 everywhere and
        # kernel 0, so each codeword is the word XOR kernel 0 tiled over
        # the right digits.
        kernels = [0xA5, 0x3C, 0x0F, 0xFF] if kernel_bits == 8 else [0xA5C3, 0x0F0F, 0x1, 0xFFFF]
        encoder = _right_plane_vcc(kernel_bits, 4, _ZeroCost(), kernels)
        rng = make_rng(22, f"vcc-zero-{kernel_bits}")
        contexts = _contexts(rng, CellTechnology.MLC, encoder)
        words = _lines(rng)
        batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        assert not batched.auxes.any() and not batched.costs.any()
        plane_mask = sum(kernels[0] << shift for shift in range(0, 32, kernel_bits))
        spread = interleave_planes(0, plane_mask, WORD_BITS)
        assert (batched.codewords ^ np.array(words, dtype=np.uint64) == spread).all()
        assert _batched(batched) == _encode_per_word(encoder, words, contexts)

    def test_equal_totals_pick_the_lowest_kernel_index(self):
        # Kernels 2 and 3 repeat kernels 0 and 1 and aux values are free,
        # so every total has a twin and only indices 0 and 1 may win.
        encoder = _right_plane_vcc(8, 4, _FreeAuxBitChangeCost(), [0x5A, 0xC3, 0x5A, 0xC3])
        rng = make_rng(23, "vcc-equal-totals")
        contexts = _contexts(rng, CellTechnology.MLC, encoder)
        words = _lines(rng)
        batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        kernel_indices = batched.auxes >> encoder.config.partitions
        assert set(kernel_indices.reshape(-1).tolist()) == {0, 1}
        assert _batched(batched) == _encode_per_word(encoder, words, contexts)

    @pytest.mark.parametrize("cost", [BitChangeCost(), EnergyCost(CellTechnology.MLC)])
    def test_right_plane_codewords_keep_the_left_digits(self, cost):
        encoder = make_encoder(
            "vcc", word_bits=WORD_BITS, num_cosets=256, technology=CellTechnology.MLC,
            cost_function=cost,
        )
        rng = make_rng(24, f"vcc-left-digits-{cost.name}")
        contexts = _contexts(rng, CellTechnology.MLC, encoder)
        words = np.array(_lines(rng), dtype=np.uint64)
        batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        changed = batched.codewords ^ words
        assert not (changed & np.uint64(0xAAAAAAAAAAAAAAAA)).any()
        assert changed.any()

    @pytest.mark.parametrize("kernel_bits", [4, 2], ids=["8-partitions", "16-partitions"])
    def test_many_partitions_match_encode_per_word(self, kernel_bits):
        # Eight or more partition costs are summed pairwise by NumPy, in
        # another order than the product's: integer costs make both exact.
        encoder = _right_plane_vcc(kernel_bits, 4, EnergyCost(CellTechnology.MLC))
        assert encoder.config.partitions == 32 // kernel_bits
        rng = make_rng(25, f"vcc-gather-order-{kernel_bits}")
        contexts = _contexts(rng, CellTechnology.MLC, encoder)
        words = _lines(rng)
        batched = encoder.encode_lines(words, LineBatch.from_lines(contexts))
        assert _batched(batched) == _encode_per_word(encoder, words, contexts)
