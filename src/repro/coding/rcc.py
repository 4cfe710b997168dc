"""Random Coset Coding (RCC) with stored full-length random cosets.

RCC(n, N) XORs the n-bit data block with each of N independent random
n-bit coset candidates, evaluates all N transformed blocks against the
cost function, and stores the cheapest along with a ``log2 N``-bit index.
The candidates are generated once (from a seed) and held in a ROM, exactly
like the hardware baseline the paper synthesises; decoding XORs the stored
candidate back out.

RCC is the quality ceiling the paper measures VCC against: it achieves the
best energy/SAW results but its encoder area, energy, and latency grow
linearly with N (Fig. 6), which is what motivates VCC.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.coding.base import (
    EncodedBatch,
    EncodedWord,
    Encoder,
    LineBatch,
    WordContext,
    WordsMatrix,
    words_matrix_to_cells,
    words_to_cell_matrix,
)
# The product path never enters a cost kernel, so it bumps the cost
# kernels' candidate counter itself.
from repro.coding.cost import _OBS_CANDIDATES, BitChangeCost, CostFunction, _folded_rows
from repro.coding.registry import register_encoder
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology
from repro.utils.bitops import random_word
from repro.utils.rng import make_rng
from repro.utils.validation import require_power_of_two

__all__ = ["RCCEncoder"]

@register_encoder(
    "rcc",
    description="Random coset coding with N stored full-length random cosets",
    params=("word_bits", "num_cosets", "technology", "cost_function", "seed"),
)
class RCCEncoder(Encoder):
    """Random coset coding with ``N`` stored random candidates.

    Parameters
    ----------
    word_bits:
        Width of the data block.
    num_cosets:
        Number of stored random coset candidates (power of two).  Candidate
        index 0 is forced to the all-zeros vector so RCC never does worse
        than the unencoded write on the chosen objective.
    technology:
        Target cell technology.
    cost_function:
        Objective minimised when selecting the candidate.
    seed:
        Seed used to generate the candidate ROM.
    """

    name = "rcc"

    def __init__(
        self,
        word_bits: int = 64,
        num_cosets: int = 256,
        technology: CellTechnology = CellTechnology.MLC,
        cost_function: CostFunction = None,
        seed: Optional[int] = 12345,
    ):
        super().__init__(word_bits, technology, cost_function or BitChangeCost())
        require_power_of_two(num_cosets, "num_cosets")
        if num_cosets < 2:
            raise ConfigurationError("RCC needs at least 2 coset candidates")
        if num_cosets > 1 << word_bits:
            raise ConfigurationError(
                f"RCC cannot draw {num_cosets} distinct cosets of {word_bits} bits"
            )
        self.num_cosets = num_cosets
        self.seed = seed
        rng = make_rng(seed, "rcc-cosets")
        cosets: List[int] = [0]
        seen = {0}
        while len(cosets) < num_cosets:
            candidate = random_word(rng, word_bits)
            if candidate in seen:
                continue
            seen.add(candidate)
            cosets.append(candidate)
        self.cosets: List[int] = cosets
        self._coset_array = np.array(cosets, dtype=np.uint64)
        # One-hot coset matrix of the scoring product: column c has a 1 in
        # row ``cell * levels + coset_cell`` for every cell of coset c.
        coset_cells = words_to_cell_matrix(cosets, word_bits, self.bits_per_cell)
        levels = 1 << self.bits_per_cell
        self._coset_onehot = np.zeros((self.cells_per_word * levels, num_cosets))
        self._coset_onehot[
            coset_cells + np.arange(self.cells_per_word) * levels,
            np.arange(num_cosets)[:, None],
        ] = 1.0

    @property
    def aux_bits(self) -> int:
        return self.num_cosets.bit_length() - 1

    def encode(self, data: int, context: WordContext) -> EncodedWord:
        self._check_data(data)
        self._check_context(context)
        candidates = [data ^ coset for coset in self.cosets]
        auxes = list(range(self.num_cosets))
        return self._select_best(candidates, auxes, context)

    def encode_lines(self, words: WordsMatrix, batch: LineBatch) -> EncodedBatch:
        values = self._check_lines_batch(words, batch)
        lines, words_per_line = values.shape
        total_words = lines * words_per_line
        flat = values.reshape(total_words)
        cost = self.cost_function
        data_cells = words_matrix_to_cells(flat, self.word_bits, self.bits_per_cell)
        # Each cell's row of the folded table holds its cost for every coset
        # cell v (the data cell XOR-folded in), so all cosets of all words
        # are scored by one product against the one-hot coset matrix.  The
        # product sums what the scalar path sums, one table entry per cell
        # plus entries times 0.0; the entries are integers bounded when the
        # encoder was built (see repro.coding.cost), so every partial sum is
        # exact and any summation order gives the same bits.
        folded = np.take(
            cost._folded_table(self.bits_per_cell), _folded_rows(batch, data_cells), axis=0
        )
        data_costs = folded.reshape(total_words, -1) @ self._coset_onehot
        _OBS_CANDIDATES.inc(lines * self.num_cosets)
        # Selection inline (the (words, cosets) layout of the GEMM saves
        # transposing into _select_best_lines): totals, the argmin,
        # and the tie-breaking order are element-for-element those of
        # _select_best, and only the winning candidates are built.  The
        # cosets are every aux value, so a word's aux costs are the row of
        # its stored aux in the cached aux table.
        old_auxes = batch.old_auxes.reshape(-1)
        aux_table = cost._aux_table(self.aux_bits, old_auxes)
        if aux_table is not None:
            aux_costs = aux_table[old_auxes]
        else:
            auxes = np.arange(self.num_cosets, dtype=np.int64)
            aux_costs = cost.aux_costs_matrix(
                np.broadcast_to(auxes[:, None], (self.num_cosets, total_words)),
                old_auxes,
                self.aux_bits,
            ).T
        totals = data_costs + aux_costs
        best = np.argmin(totals, axis=1)
        shape = (lines, words_per_line)
        return self._encoded(
            (flat ^ self._coset_array[best]).reshape(shape),
            best.reshape(shape),
            totals[np.arange(total_words), best].reshape(shape),
        )

    def decode(self, codeword: int, aux: int) -> int:
        if not 0 <= aux < self.num_cosets:
            raise ConfigurationError(
                f"coset index {aux} out of range [0, {self.num_cosets})"
            )
        return codeword ^ self.cosets[aux]
