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

from typing import List, Optional, Sequence

import numpy as np

from repro.coding.base import (
    EncodedLine,
    EncodedWord,
    Encoder,
    LineContext,
    WordContext,
    WordsMatrix,
    words_matrix_to_cells,
    words_to_cell_matrix,
)
from repro.coding.cost import BitChangeCost, CostFunction, exact_table_sums
from repro.coding.registry import register_encoder
import repro.obs as obs
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology
from repro.utils.bitops import random_word
from repro.utils.rng import make_rng
from repro.utils.validation import require_power_of_two

__all__ = ["RCCEncoder"]

# Same counter the batched cost kernels bump (registry get-or-create):
# the GEMM fast path never enters a cost kernel, so it reports its
# candidates itself.
_OBS_CANDIDATES = obs.counter(
    "encode.candidates", "candidate lines scored by the batched cost kernels"
)
_OBS_KERNEL_GEMMS = obs.counter(
    "encode.kernel_gemms",
    "RCC/VCC encode_lines calls scored by one matrix product of the cost tables",
)


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
        if word_bits <= 64:
            self._coset_array = np.array(cosets, dtype=np.uint64)
            # Cell decomposition distributes over XOR, so candidate cells
            # are data_cells ^ coset_cells — precompute the latter once.
            self._coset_cells = words_to_cell_matrix(
                cosets, word_bits, self.bits_per_cell
            )
            # One-hot coset matrix of the GEMM fast path: column c has a 1
            # in row ``cell * levels + coset_cell`` for every cell of coset c.
            levels = 1 << self.bits_per_cell
            self._coset_onehot = np.zeros((self.cells_per_word * levels, num_cosets))
            self._coset_onehot[
                self._coset_cells + np.arange(self.cells_per_word) * levels,
                np.arange(num_cosets)[:, None],
            ] = 1.0
        else:
            self._coset_array = None
            self._coset_cells = None
            self._coset_onehot = None

    @property
    def aux_bits(self) -> int:
        return self.num_cosets.bit_length() - 1

    def encode(self, data: int, context: WordContext) -> EncodedWord:
        self._check_data(data)
        self._check_context(context)
        candidates = [data ^ coset for coset in self.cosets]
        auxes = list(range(self.num_cosets))
        return self._select_best(candidates, auxes, context)

    def encode_lines(
        self, words_matrix: WordsMatrix, contexts: Sequence[LineContext]
    ) -> List[EncodedLine]:
        if self._coset_array is None:
            return super().encode_lines(words_matrix, contexts)
        values = self._check_lines_batch(words_matrix, contexts)
        lines, words = values.shape
        total_words = lines * words
        flat = values.reshape(total_words)
        auxes = np.arange(self.num_cosets, dtype=np.int64)
        data_cells = words_matrix_to_cells(flat, self.word_bits, self.bits_per_cell)
        tables = self.cost_function.transition_tables(contexts)
        if tables is not None:
            tables = np.asarray(tables, np.float64).reshape(total_words, self.cells_per_word, -1)
        # The GEMM below sums what the scalar path sums, one table entry per
        # cell (every other term is an entry times 0.0).  When exact_table_sums
        # holds (finite integer entries, max|entry| * cells < 2**53), every
        # partial sum is an exact integer, so any summation order gives the
        # same bits.  Anything else (fractional LUTs or scales, inf, NaN,
        # huge values, non-cellwise costs) takes the generic 4-D kernel,
        # whose sums run in the scalar path's order.
        if tables is None or not exact_table_sums(tables, self.cells_per_word):
            candidates = (
                (flat[None, :] ^ self._coset_array[:, None])
                .reshape(self.num_cosets, lines, words)
                .transpose(1, 0, 2)
            )
            candidate_cells = (
                data_cells.reshape(lines, 1, words, -1)
                ^ self._coset_cells[None, :, None, :]
            )
            return self._select_best_lines(
                candidates, auxes, contexts, cells=candidate_cells
            )
        # GEMM fast path: fold the data word into the table (T'[w, cell, v]
        # = T[w, cell, v ^ data_cell], so a candidate's cost row is addressed
        # by the *coset* cells, which are fixed) and score all cosets of all
        # words with one product against the one-hot coset matrix.
        fold = np.arange(tables.shape[2], dtype=np.uint8)[None, None, :] ^ data_cells[:, :, None]
        folded = np.take_along_axis(tables, fold.astype(np.intp), axis=2)
        data_costs = folded.reshape(total_words, -1) @ self._coset_onehot
        _OBS_KERNEL_GEMMS.inc()
        _OBS_CANDIDATES.inc(lines * self.num_cosets)
        # Selection inline (the (words, cosets) layout of the GEMM saves
        # transposing into _select_best_lines): totals, the argmin,
        # and the tie-breaking order are element-for-element those of
        # _select_best, and only the winning candidates are built.
        old_auxes = np.concatenate([np.asarray(c.old_auxes) for c in contexts])
        aux_costs = self.cost_function.aux_costs_matrix(
            np.broadcast_to(auxes[:, None], (self.num_cosets, total_words)),
            old_auxes,
            self.aux_bits,
        )
        totals = data_costs + aux_costs.T
        best = np.argmin(totals, axis=1)
        codeword_rows = (flat ^ self._coset_array[best]).reshape(lines, words).tolist()
        aux_rows = best.reshape(lines, words).tolist()
        cost_rows = (
            totals[np.arange(total_words), best].reshape(lines, words).tolist()
        )
        return [
            EncodedLine(
                codewords=codeword_rows[line],
                auxes=aux_rows[line],
                aux_bits=self.aux_bits,
                costs=cost_rows[line],
                technique=self.name,
            )
            for line in range(lines)
        ]

    def decode(self, codeword: int, aux: int) -> int:
        if not 0 <= aux < self.num_cosets:
            raise ConfigurationError(
                f"coset index {aux} out of range [0, {self.num_cosets})"
            )
        return codeword ^ self.cosets[aux]
