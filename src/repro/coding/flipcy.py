"""Flipcy: choose among the data, its 1's complement, and its 2's complement.

Flipcy (Imran et al., ICCAD 2019) redistributes error-prone / expensive MLC
symbol patterns by storing one of three forms of the block — the original
data, its bitwise (1's) complement, or its arithmetic (2's) complement —
selected by a two-bit auxiliary code.  It was designed for biased data; on
encrypted (uniform) data all three forms look statistically identical,
which is why the paper finds it close to the unencoded baseline.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.coding.base import (
    EncodedLine,
    EncodedWord,
    Encoder,
    LineContext,
    WordContext,
    WordsMatrix,
)
from repro.coding.cost import BitChangeCost, CostFunction
from repro.coding.registry import register_encoder
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology

__all__ = ["FlipcyEncoder"]

#: Auxiliary codes for the three storable forms.
_FORM_IDENTITY = 0
_FORM_ONES_COMPLEMENT = 1
_FORM_TWOS_COMPLEMENT = 2


@register_encoder(
    "flipcy",
    description="Identity / 1's-complement / 2's-complement selection (2 aux bits)",
    params=("word_bits", "technology", "cost_function"),
)
class FlipcyEncoder(Encoder):
    """Identity / 1's-complement / 2's-complement selection (2 aux bits)."""

    name = "flipcy"

    def __init__(
        self,
        word_bits: int = 64,
        technology: CellTechnology = CellTechnology.MLC,
        cost_function: CostFunction = None,
    ):
        super().__init__(word_bits, technology, cost_function or BitChangeCost())
        self._mask = (1 << word_bits) - 1

    @property
    def aux_bits(self) -> int:
        return 2

    def encode(self, data: int, context: WordContext) -> EncodedWord:
        self._check_data(data)
        self._check_context(context)
        candidates = [
            data,
            data ^ self._mask,
            (-data) & self._mask,
        ]
        auxes = [_FORM_IDENTITY, _FORM_ONES_COMPLEMENT, _FORM_TWOS_COMPLEMENT]
        return self._select_best(candidates, auxes, context)

    def encode_lines(
        self, words_matrix: WordsMatrix, contexts: Sequence[LineContext]
    ) -> List[EncodedLine]:
        if self.word_bits > 64:
            return super().encode_lines(words_matrix, contexts)
        values = self._check_lines_batch(words_matrix, contexts)
        mask = np.uint64(self._mask)
        # Same three forms as encode, stacked along the candidate axis.
        candidates = np.stack(
            [values, values ^ mask, (~values + np.uint64(1)) & mask], axis=1
        )
        auxes = np.array(
            [_FORM_IDENTITY, _FORM_ONES_COMPLEMENT, _FORM_TWOS_COMPLEMENT], dtype=np.int64
        )
        return self._select_best_lines(candidates, auxes, contexts)

    def decode(self, codeword: int, aux: int) -> int:
        if aux == _FORM_IDENTITY:
            return codeword
        if aux == _FORM_ONES_COMPLEMENT:
            return codeword ^ self._mask
        if aux == _FORM_TWOS_COMPLEMENT:
            return (-codeword) & self._mask
        raise ConfigurationError(f"invalid Flipcy auxiliary code {aux}")
