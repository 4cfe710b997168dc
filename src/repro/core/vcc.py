"""Virtual Coset Coding encoder/decoder (Algorithm 1 of the paper).

``VCCEncoder`` evaluates, for every kernel ``R_i`` and every kernel-sized
partition ``d_j`` of the encoded region, both the XOR form ``d_j ^ R_i``
and the XNOR form ``d_j ^ ~R_i`` of the partition, keeps whichever is
cheaper under the configured cost function, and concatenates the winners.
That gives the best of the ``2^p`` virtual cosets generated by ``R_i`` at
the evaluation cost of a single full-length coset; the overall winner among
the ``r`` kernels (including the cost of writing the auxiliary bits) is the
stored codeword.  Decoding XORs the selected kernel (or its complement,
per-partition) back out — a single pass of XOR/XNOR gates.

Two operating modes are supported (see :class:`repro.core.config.VCCConfig`):

* **full word** — kernels are applied to all n bits (the Fig. 3 example);
* **right plane** — kernels are applied only to the right-digit bitplane
  of an MLC word; the left digits pass through unchanged and may seed the
  Algorithm 2 kernel generator (the paper's MLC design).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

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
# The product paths never enter a cost kernel, so they bump the cost
# kernels' candidate counter themselves.
from repro.coding.cost import _OBS_CANDIDATES, BitChangeCost, CostFunction, _folded_rows
from repro.coding.registry import register_encoder
from repro.core.config import EncodeRegion, VCCConfig
from repro.core.kernels import GeneratedKernelProvider, KernelProvider, StoredKernelProvider
from repro.errors import ConfigurationError, EncodingError
from repro.utils.bitops import interleave_planes, split_planes, split_subblocks, spread_even_bits

__all__ = ["VCCEncoder"]


class VCCEncoder(Encoder):
    """Virtual Coset Coding: VCC(n, N, r) per Algorithm 1.

    Parameters
    ----------
    config:
        The VCC design point (word width, kernel width/count, stored vs.
        generated kernels, encode region).
    cost_function:
        Objective minimised when selecting the virtual coset.  Defaults to
        bit changes against the current contents.
    seed:
        Seed for the stored-kernel ROM (ignored for generated kernels or
        when an explicit ``kernel_provider`` is supplied).
    kernel_provider:
        Override the kernel source, e.g. to pin the exact kernels of the
        Fig. 3 worked example.  A full-word configuration needs a stored
        ROM (``is_stored``): its decoder cannot regenerate data-dependent
        kernels from a codeword whose every bit may have changed.
    """

    name = "vcc"

    def __init__(
        self,
        config: VCCConfig,
        cost_function: Optional[CostFunction] = None,
        seed: Optional[int] = 12345,
        kernel_provider: Optional[KernelProvider] = None,
    ):
        super().__init__(config.word_bits, config.technology, cost_function or BitChangeCost())
        self.config = config
        if kernel_provider is None:
            if config.stored_kernels:
                kernel_provider = StoredKernelProvider(
                    config.kernel_bits, config.num_kernels, seed=seed
                )
            else:
                kernel_provider = GeneratedKernelProvider(config)
        else:
            if kernel_provider.kernel_bits != config.kernel_bits:
                raise ConfigurationError(
                    "kernel provider width does not match the configuration"
                )
            if kernel_provider.num_kernels != config.num_kernels:
                raise ConfigurationError(
                    "kernel provider count does not match the configuration"
                )
            if config.encode_region is EncodeRegion.FULL_WORD and not kernel_provider.is_stored:
                raise ConfigurationError(
                    "full-word encoding needs a stored kernel ROM: decode cannot "
                    "regenerate data-dependent kernels from the codeword"
                )
        self.kernel_provider = kernel_provider
        if kernel_provider.is_stored:
            self.name = "vcc-stored"
        self._kernel_mask = (1 << config.kernel_bits) - 1
        self._plane_bits = config.word_bits // 2
        self._kernel_shifts = np.arange(config.kernel_bits - 1, -1, -1, dtype=np.uint64)
        # One-hot matrix of the full-word ROM product (see encode_lines):
        # column i (XOR form of kernel i) has a 1 in row ``cell * levels +
        # kernel_cell`` for every cell of a partition; column r + i, the
        # XNOR form, the same for the complemented kernel cells.
        self._rom_onehot = None
        if config.encode_region is EncodeRegion.FULL_WORD:
            levels = 1 << self.bits_per_cell
            kernel_cells = words_matrix_to_cells(
                np.asarray(kernel_provider.kernels_for(0), dtype=np.uint64),
                config.kernel_bits,
                self.bits_per_cell,
            )
            forms = np.concatenate([kernel_cells, kernel_cells ^ (levels - 1)])
            cells = config.cells_per_partition
            self._rom_onehot = np.zeros((cells * levels, 2 * config.num_kernels))
            self._rom_onehot[
                forms + np.arange(cells) * levels, np.arange(len(forms))[:, None]
            ] = 1.0

    # ----------------------------------------------------------- properties
    @property
    def aux_bits(self) -> int:
        return self.config.aux_bits

    @property
    def num_cosets(self) -> int:
        """Total number of virtual coset candidates N."""
        return self.config.num_cosets

    # --------------------------------------------------------------- encode
    def encode(self, data: int, context: WordContext) -> EncodedWord:
        self._check_data(data)
        self._check_context(context)
        config = self.config
        p = config.partitions
        r = config.num_kernels
        kernels = self.kernel_provider.kernels_for(data)
        if len(kernels) != r:
            raise EncodingError(
                f"kernel provider returned {len(kernels)} kernels, expected {r}"
            )

        encoded_region, left_plane = self._split_regions(data)
        subblocks = split_subblocks(encoded_region, config.encoded_bits, config.kernel_bits)

        kernel_array = np.asarray(kernels, dtype=np.uint64)
        xor_costs = np.empty((r, p), dtype=np.float64)
        xnor_costs = np.empty((r, p), dtype=np.float64)

        for j, sub in enumerate(subblocks):
            costs = self._partition_costs(sub, j, kernel_array, left_plane, context)
            xor_costs[:, j] = costs[:r]
            xnor_costs[:, j] = costs[r:]

        flags_matrix = xnor_costs < xor_costs
        per_partition_best = np.where(flags_matrix, xnor_costs, xor_costs)
        data_costs = per_partition_best.sum(axis=1)

        best_total = None
        best_kernel = 0
        best_flags = 0
        best_aux = 0
        for i in range(r):
            flags = 0
            for j in range(p):
                flags = (flags << 1) | int(flags_matrix[i, j])
            aux = (i << p) | flags
            total = float(data_costs[i]) + self.cost_function.aux_cost(
                aux, context.old_aux, self.aux_bits
            )
            if best_total is None or total < best_total:
                best_total = total
                best_kernel = i
                best_flags = flags
                best_aux = aux

        codeword = self._build_codeword(
            subblocks, kernels[best_kernel], best_flags, left_plane
        )
        return EncodedWord(
            codeword=codeword,
            aux=best_aux,
            aux_bits=self.aux_bits,
            cost=float(best_total),
            technique=self.name,
        )

    def encode_lines(self, words: WordsMatrix, batch: LineBatch) -> EncodedBatch:
        """Encode a whole batch of queued writes in one vectorised pass.

        VCC selects candidates per word, so kernels, partition costs,
        flags, and the per-word argmin all run once over the
        ``lines * words_per_line`` words of the batch, word-major.
        :meth:`_product_costs` scores every candidate from the cost
        function's folded table with one matrix product and returns
        ``(flags, data_costs)``: the ``(words, partitions, r)`` choices,
        true where the XNOR form of a partition is strictly cheaper than
        its XOR form (a tie keeps XOR, like :meth:`encode`), and each
        kernel's ``(words, r)`` data cost, the sum of the cheaper form
        over the partitions.  The tail then packs the flags into aux
        values, adds their costs (from the cost's cached ``(old, new)``
        aux table where the field is narrow enough), takes the argmin
        (lowest kernel on ties), and XORs one mask into every word: the
        winning kernel tiled over the partitions, complemented where its
        flag is set, and on the right plane spread onto the right digits
        so the left digits pass through.  The selected kernels, flags,
        codewords, and costs are bit-identical to :meth:`encode` on each
        word.
        """
        config = self.config
        values = self._check_lines_batch(words, batch)
        lines, words_per_line = values.shape
        num_words = lines * words_per_line
        p = config.partitions
        r = config.num_kernels

        flat = values.reshape(num_words)
        kernels_matrix = np.asarray(
            self.kernel_provider.kernels_for_batch(flat), dtype=np.uint64
        )
        if kernels_matrix.shape != (num_words, r):
            raise EncodingError(
                f"kernel provider returned shape {kernels_matrix.shape} kernels, "
                f"expected ({num_words}, {r})"
            )
        flags, data_costs = self._product_costs(flat, kernels_matrix, batch)

        # Partition j's flag is aux bit p - 1 - j, as in encode.
        flag_weights = np.int64(1) << np.arange(p - 1, -1, -1, dtype=np.int64)
        aux_values = (np.arange(r, dtype=np.int64) << p) | np.einsum(
            "wpr,p->wr", flags, flag_weights
        )
        aux_costs = self.cost_function._aux_costs(
            aux_values.T, batch.old_auxes.reshape(-1), self.aux_bits
        )
        totals = data_costs + aux_costs.T
        best = np.argmin(totals, axis=1)

        # Partition j sits at bit kernel_bits * (p - 1 - j), so the kernel
        # tiled over the region is kernel * sum(units) and the complement
        # mask kernel_mask * sum(units where flagged), with no carries.
        word_index = np.arange(num_words)
        units = np.uint64(1) << (
            np.arange(p - 1, -1, -1, dtype=np.uint64) * np.uint64(config.kernel_bits)
        )
        complemented = (flags[word_index, :, best] * units).sum(axis=1, dtype=np.uint64)
        mask = (kernels_matrix[word_index, best] * units.sum(dtype=np.uint64)) ^ (
            complemented * np.uint64(self._kernel_mask)
        )
        if config.encode_region is EncodeRegion.RIGHT_PLANE:
            mask = spread_even_bits(mask)

        shape = (lines, words_per_line)
        return self._encoded(
            (flat ^ mask).reshape(shape),
            aux_values[word_index, best].reshape(shape),
            totals[word_index, best].reshape(shape),
        )

    # --------------------------------------------------------------- decode
    def decode(self, codeword: int, aux: int) -> int:
        config = self.config
        p = config.partitions
        if aux < 0 or aux >= (1 << self.aux_bits):
            raise ConfigurationError(
                f"aux value {aux} does not fit in {self.aux_bits} bits"
            )
        kernel_index = aux >> p
        flags = aux & ((1 << p) - 1)
        if kernel_index >= config.num_kernels:
            raise ConfigurationError(
                f"kernel index {kernel_index} out of range [0, {config.num_kernels})"
            )
        kernels = self.kernel_provider.kernels_for(codeword)
        kernel = kernels[kernel_index]

        encoded_region, left_plane = self._split_regions(codeword)
        subblocks = split_subblocks(encoded_region, config.encoded_bits, config.kernel_bits)
        recovered = 0
        for j, sub in enumerate(subblocks):
            flag = (flags >> (p - 1 - j)) & 1
            mask_value = kernel if flag == 0 else (kernel ^ self._kernel_mask)
            recovered = (recovered << config.kernel_bits) | (sub ^ mask_value)
        return self._merge_regions(recovered, left_plane)

    # ------------------------------------------------------------ internals
    def _split_regions(self, word: int) -> Tuple[int, Optional[int]]:
        """Return ``(encoded_region, passthrough_left_plane)`` for ``word``."""
        if self.config.encode_region is EncodeRegion.RIGHT_PLANE:
            left, right = split_planes(word, self.config.word_bits)
            return right, left
        return word, None

    def _merge_regions(self, encoded_region: int, left_plane: Optional[int]) -> int:
        """Inverse of :meth:`_split_regions`."""
        if self.config.encode_region is EncodeRegion.RIGHT_PLANE:
            return interleave_planes(left_plane, encoded_region, self.config.word_bits)
        return encoded_region

    def _partition_cells(self, j: int) -> Tuple[int, int]:
        """Cell index range ``[start, stop)`` covered by partition ``j``."""
        cells = self.config.cells_per_partition
        return j * cells, (j + 1) * cells

    def _product_costs(
        self, flat: np.ndarray, kernels_matrix: np.ndarray, batch: LineBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(flags, data_costs)`` from the folded cell table and one matrix product.

        The folded table holds each cell's cost for every XOR mask cell,
        the data cell folded in (derived once per cost), so no candidate
        cell is built:

        * right-digit plane: a cell's left digit is fixed, so the cell
          costs ``a0`` or ``a1`` for kernel bit 0 or 1, columns 0 and 1 of
          its folded row.  Over a partition the XOR form costs ``A0 + F``
          and the XNOR form ``A1 - F``, with ``F = (a1 - a0) @ bits``, so
          one batched product ``g = (a1 - a0) @ signs``, where ``signs``
          is +1 for a kernel bit 1 and -1 for a 0, is the margin ``xor -
          xnor`` of every word, partition, and kernel.  The flags are ``g
          > 0`` (a tie keeps XOR) and ``sum(min(xor, xnor))`` over the
          partitions is ``(sum(a0 + a1) - sum(|g|)) / 2``.  The bits may
          differ per word, so this holds for any kernel provider;
        * full word with a stored ROM: a candidate's cell costs are
          addressed by the fixed kernel cells, and one product of the
          folded rows against a one-hot matrix of the ``2r`` kernel forms
          (built once per encoder) gives the ``xor``/``xnor`` halves.

        A full-word encoder always has that ROM (see the class
        docstring).  Both shapes are exact, and bit-identical to
        :meth:`encode`'s sums, because the cell table holds finite integers
        with ``2 * cells * max|entry| < 2**53`` (checked when the cost
        builds the table and when the encoder is built): every term above
        (``a0 + a1`` summed over the word, ``g`` over a partition,
        ``sum(|g|)`` over the word, a product's partial sums) is then an
        exactly representable integer of magnitude at most ``2 * cells *
        max|entry|``, whatever order it is added in, and ``sum(a0 + a1) -
        sum(|g|)`` is ``2 * sum(min(xor, xnor))``, even, so halving it is
        exact.
        """
        config = self.config
        cost = self.cost_function
        num_words = flat.shape[0]
        p = config.partitions
        r = config.num_kernels
        folded = cost._folded_table(self.bits_per_cell)
        data_cells = words_matrix_to_cells(flat, self.word_bits, self.bits_per_cell)
        rows = _folded_rows(batch, data_cells)
        if config.encode_region is EncodeRegion.RIGHT_PLANE:
            # A data cell (left << 1) | right becomes (left << 1) | (right ^
            # kernel bit): folded columns 0 and 1 of the cell's row.
            index = rows * folded.shape[1]
            flat_folded = folded.reshape(-1)
            a0 = np.take(flat_folded, index).reshape(num_words, p, -1)
            a1 = np.take(flat_folded, index + 1).reshape(num_words, p, -1)
            margins = (a1 - a0) @ self._kernel_signs(kernels_matrix)
            flags = margins > 0
            data_costs = (
                (a0 + a1).sum(axis=(1, 2))[:, None] - np.abs(margins).sum(axis=1)
            ) / 2
        else:
            # Candidate cells are data_cells ^ kernel_cells, so each cell's
            # folded row is addressed by the ROM alone.
            costs = (
                np.take(folded, rows, axis=0).reshape(num_words * p, -1) @ self._rom_onehot
            ).reshape(num_words, p, 2 * r)
            xor_costs, xnor_costs = costs[:, :, :r], costs[:, :, r:]
            flags = xnor_costs < xor_costs
            data_costs = np.where(flags, xnor_costs, xor_costs).sum(axis=1)
        _OBS_CANDIDATES.inc(len(batch) * 2 * r)
        return flags, data_costs

    def _kernel_signs(self, kernels_matrix: np.ndarray) -> np.ndarray:
        """The ``(words, kernel_bits, r)`` kernel bits, MSB first, as +1/-1."""
        bits = (kernels_matrix[:, None, :] >> self._kernel_shifts[None, :, None]) & np.uint64(1)
        return bits.astype(np.float64) * 2.0 - 1.0

    def _partition_costs(
        self,
        subblock: int,
        j: int,
        kernel_array: np.ndarray,
        left_plane: Optional[int],
        context: WordContext,
    ) -> np.ndarray:
        """Costs of the 2r candidate encodings of partition ``j``.

        Returns a vector of length ``2r``: the first ``r`` entries are the
        XOR candidates (one per kernel), the last ``r`` the XNOR candidates.
        """
        config = self.config
        r = config.num_kernels
        xor_values = np.bitwise_xor(np.uint64(subblock), kernel_array)
        xnor_values = np.bitwise_xor(xor_values, np.uint64(self._kernel_mask))
        all_values = np.concatenate([xor_values, xnor_values])

        start, stop = self._partition_cells(j)
        sub_context = self.cost_function.slice_context(context, start, stop)

        if config.encode_region is EncodeRegion.RIGHT_PLANE:
            # Each kernel bit is the right digit of one cell; the left digit
            # comes, unchanged, from the passthrough plane.
            right_bits = (all_values[:, None] >> self._kernel_shifts[None, :]) & np.uint64(1)
            left_sub = (
                left_plane >> (config.encoded_bits - (j + 1) * config.kernel_bits)
            ) & self._kernel_mask
            left_bits = np.array(
                [(left_sub >> shift) & 1 for shift in range(config.kernel_bits - 1, -1, -1)],
                dtype=np.uint64,
            )
            cell_matrix = ((left_bits[None, :] << 1) | right_bits).astype(np.uint8)
        else:
            cell_matrix = words_to_cell_matrix(
                [int(v) for v in all_values], config.kernel_bits, self.bits_per_cell
            )

        costs = self.cost_function.cell_costs_matrix(cell_matrix, sub_context)
        return costs.sum(axis=1)

    def _build_codeword(
        self,
        subblocks: Sequence[int],
        kernel: int,
        flags: int,
        left_plane: Optional[int],
    ) -> int:
        """Assemble the winning codeword from the chosen kernel and flags."""
        config = self.config
        p = config.partitions
        encoded = 0
        for j, sub in enumerate(subblocks):
            flag = (flags >> (p - 1 - j)) & 1
            mask_value = kernel if flag == 0 else (kernel ^ self._kernel_mask)
            encoded = (encoded << config.kernel_bits) | (sub ^ mask_value)
        return self._merge_regions(encoded, left_plane)


@register_encoder(
    "vcc",
    description="Virtual Coset Coding with Algorithm 2 generated kernels (right plane on MLC)",
)
def _build_generated_vcc(word_bits, num_cosets, technology, cost_function, seed) -> VCCEncoder:
    config = VCCConfig.for_cosets(
        word_bits=word_bits,
        num_cosets=num_cosets,
        technology=technology,
        stored_kernels=False,
    )
    return VCCEncoder(config, cost_function=cost_function, seed=seed)


@register_encoder(
    "vcc-stored",
    description="Virtual Coset Coding with stored ROM kernels over the full word",
)
def _build_stored_vcc(word_bits, num_cosets, technology, cost_function, seed) -> VCCEncoder:
    config = VCCConfig.for_cosets(
        word_bits=word_bits,
        num_cosets=num_cosets,
        technology=technology,
        stored_kernels=True,
    )
    return VCCEncoder(config, cost_function=cost_function, seed=seed)
