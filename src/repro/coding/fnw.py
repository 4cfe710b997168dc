"""Flip-N-Write (FNW): per-partition conditional inversion.

FNW divides the data word into ``partitions`` equal sub-blocks and writes
each either directly or bitwise inverted, whichever is cheaper under the
configured cost function, at the price of one auxiliary bit per partition.
In coset terms each partition uses the two biased candidates
``V0 = 0...0`` and ``V1 = 1...1``.

The classic formulation minimises changed bits; because this implementation
scores candidates through the shared cost-function interface it can just as
well minimise MLC write energy or stuck-at-wrong cells, which is how the
DBI/FNW baseline is driven in the lifetime experiments (Figs. 11/12).
"""

from __future__ import annotations

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
from repro.coding.cost import BitChangeCost, CostFunction
from repro.coding.registry import register_encoder
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology
from repro.utils.validation import require, require_divisible

__all__ = ["FNWEncoder"]


@register_encoder(
    "fnw",
    aliases=("dbi/fnw",),
    description="Flip-N-Write over 16-bit sub-blocks (the paper's DBI/FNW baseline)",
    params=("word_bits", "technology", "cost_function"),
    defaults={"partitions": 4},
)
class FNWEncoder(Encoder):
    """Flip-N-Write with a configurable number of partitions.

    Parameters
    ----------
    word_bits:
        Width of the data word (64 in the paper's evaluation).
    partitions:
        Number of independently-invertible sub-blocks.  The paper's
        "DBI/FNW" baseline uses 16-bit sub-blocks, i.e. 4 partitions of a
        64-bit word.
    technology:
        Cell technology of the target memory.
    cost_function:
        Objective minimised when choosing direct vs. inverted.
    """

    name = "fnw"

    def __init__(
        self,
        word_bits: int = 64,
        partitions: int = 4,
        technology: CellTechnology = CellTechnology.MLC,
        cost_function: CostFunction = None,
    ):
        super().__init__(word_bits, technology, cost_function or BitChangeCost())
        # One flag bit per partition: 64 partitions would overflow the
        # int64 auxiliary field.
        require(0 < partitions < 64, f"partitions must be in [1, 63], got {partitions}")
        require_divisible(word_bits, partitions, "word_bits must be divisible by partitions")
        self.partitions = partitions
        self.sub_bits = word_bits // partitions
        require_divisible(
            self.sub_bits, self.bits_per_cell, "partition width must hold whole cells"
        )
        self.cells_per_partition = self.sub_bits // self.bits_per_cell
        self._sub_mask = (1 << self.sub_bits) - 1

    @property
    def aux_bits(self) -> int:
        return self.partitions

    # ---------------------------------------------------------------- encode
    def encode(self, data: int, context: WordContext) -> EncodedWord:
        self._check_data(data)
        self._check_context(context)
        codeword = 0
        flags = 0
        total_cost = 0.0
        for index in range(self.partitions):
            shift = self.sub_bits * (self.partitions - 1 - index)
            sub = (data >> shift) & self._sub_mask
            inverted = sub ^ self._sub_mask
            start = index * self.cells_per_partition
            stop = start + self.cells_per_partition
            sub_context = self.cost_function.slice_context(context, start, stop)
            matrix = words_to_cell_matrix([sub, inverted], self.sub_bits, self.bits_per_cell)
            costs = self.cost_function.cell_costs_matrix(matrix, sub_context).sum(axis=1)
            if costs[1] < costs[0]:
                chosen, flag, cost = inverted, 1, costs[1]
            else:
                chosen, flag, cost = sub, 0, costs[0]
            codeword = (codeword << self.sub_bits) | chosen
            flags = (flags << 1) | flag
            total_cost += float(cost)
        total_cost += self.cost_function.aux_cost(flags, context.old_aux, self.aux_bits)
        return EncodedWord(
            codeword=codeword,
            aux=flags,
            aux_bits=self.aux_bits,
            cost=total_cost,
            technique=self.name,
        )

    def encode_lines(self, words: WordsMatrix, batch: LineBatch) -> EncodedBatch:
        # One batch_line_cell_costs call scores the direct and inverted form
        # of every partition of every word of every queued write.
        values = self._check_lines_batch(words, batch)
        lines, num_words = values.shape
        p = self.partitions
        sub_mask = np.uint64(self._sub_mask)
        shifts = np.array(
            [self.sub_bits * (p - 1 - j) for j in range(p)], dtype=np.uint64
        )
        subs = (values[:, :, None] >> shifts) & sub_mask
        subs_flat = subs.reshape(lines, 1, num_words * p)
        candidates = np.concatenate([subs_flat, subs_flat ^ sub_mask], axis=1)
        cells = words_matrix_to_cells(candidates, self.sub_bits, self.bits_per_cell)
        # Each line's partitions are the "words" of the split batch, so one
        # kernel call scores both forms of every partition of the batch.
        costs = (
            self.cost_function.batch_line_cell_costs(cells, batch.split_partitions(p))
            .sum(axis=3)
            .reshape(lines, 2, num_words, p)
        )
        flags_matrix = costs[:, 1] < costs[:, 0]
        chosen_costs = np.where(flags_matrix, costs[:, 1], costs[:, 0])
        # Accumulate partitions left to right, matching the scalar loop's
        # float association exactly (bit-for-bit cost parity).
        totals = np.zeros((lines, num_words), dtype=np.float64)
        for j in range(p):
            totals += chosen_costs[:, :, j]
        chosen_subs = np.where(flags_matrix, subs ^ sub_mask, subs)
        codewords = np.zeros((lines, num_words), dtype=np.uint64)
        flags = np.zeros((lines, num_words), dtype=np.int64)
        for j in range(p):
            codewords |= chosen_subs[:, :, j] << shifts[j]
            flags = (flags << 1) | flags_matrix[:, :, j]
        totals += self.cost_function._aux_costs(
            flags.reshape(1, lines * num_words),
            batch.old_auxes.reshape(-1),
            self.aux_bits,
        )[0].reshape(lines, num_words)
        return self._encoded(codewords, flags, totals)

    # ---------------------------------------------------------------- decode
    def decode(self, codeword: int, aux: int) -> int:
        if aux < 0 or aux >= (1 << self.partitions):
            raise ConfigurationError(
                f"aux value {aux} does not fit in {self.partitions} flag bits"
            )
        data = 0
        for index in range(self.partitions):
            shift = self.sub_bits * (self.partitions - 1 - index)
            sub = (codeword >> shift) & self._sub_mask
            flag = (aux >> (self.partitions - 1 - index)) & 1
            if flag:
                sub ^= self._sub_mask
            data = (data << self.sub_bits) | sub
        return data
