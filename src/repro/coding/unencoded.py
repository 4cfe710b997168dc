"""The unencoded baseline: data is written back exactly as received."""

from __future__ import annotations

from typing import List, Sequence

from repro.coding.base import (
    EncodedLine,
    EncodedWord,
    Encoder,
    LineContext,
    WordContext,
    WordsMatrix,
    words_matrix_to_cells,
)
from repro.coding.cost import BitChangeCost, CostFunction
from repro.coding.registry import register_encoder
from repro.pcm.array import word_to_cells
from repro.pcm.cell import CellTechnology

__all__ = ["UnencodedEncoder"]


@register_encoder(
    "unencoded",
    description="Identity writeback, no auxiliary bits (the normalisation baseline)",
    params=("word_bits", "technology", "cost_function"),
)
class UnencodedEncoder(Encoder):
    """Identity encoding — the baseline every figure normalises against.

    The encoder still reports the cost of the write (under the configured
    cost function) so simulators can account energy and SAW cells uniformly
    across techniques, but it never transforms the data and needs no
    auxiliary bits.
    """

    name = "unencoded"
    is_identity = True

    def __init__(
        self,
        word_bits: int = 64,
        technology: CellTechnology = CellTechnology.MLC,
        cost_function: CostFunction = None,
    ):
        super().__init__(word_bits, technology, cost_function or BitChangeCost())

    @property
    def aux_bits(self) -> int:
        return 0

    def encode(self, data: int, context: WordContext) -> EncodedWord:
        self._check_data(data)
        self._check_context(context)
        cells = word_to_cells(data, self.word_bits, self.bits_per_cell)
        cost = self.cost_function.word_cost(cells, context)
        return EncodedWord(
            codeword=data, aux=0, aux_bits=0, cost=float(cost), technique=self.name
        )

    def encode_lines(
        self, words_matrix: WordsMatrix, contexts: Sequence[LineContext]
    ) -> List[EncodedLine]:
        if self.word_bits > 64:
            return super().encode_lines(words_matrix, contexts)
        values = self._check_lines_batch(words_matrix, contexts)
        lines, words = values.shape
        # A single one-candidate batch kernel call reports the cost of
        # storing every line unchanged; there is nothing to select.
        cells = words_matrix_to_cells(
            values.reshape(lines, 1, words), self.word_bits, self.bits_per_cell
        )
        costs = self.cost_function.batch_line_cell_costs(cells, contexts)[:, 0].sum(axis=2)
        return [
            EncodedLine(
                codewords=tuple(int(w) for w in values[line]),
                auxes=(0,) * words,
                aux_bits=0,
                costs=tuple(float(c) for c in costs[line]),
                technique=self.name,
            )
            for line in range(lines)
        ]

    def decode(self, codeword: int, aux: int) -> int:
        del aux
        return codeword

    def decode_line(self, codewords: Sequence[int], auxes: Sequence[int]) -> List[int]:
        del auxes
        return [int(c) for c in codewords]
