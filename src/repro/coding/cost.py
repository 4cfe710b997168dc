"""Cost functions used to select among candidate codewords.

Every encoder in this repository optimises a :class:`CostFunction`.  The
paper exercises several:

* minimising written '1's (:class:`OnesCost`, the running example of
  Fig. 3, relevant when the old contents are unknown or all-zero);
* minimising changed bits (:class:`BitChangeCost`) or changed cells
  (:class:`CellChangeCost`), the classic Flip-N-Write objective;
* minimising MLC/SLC write energy against the current cell contents
  (:class:`EnergyCost`, Table I);
* minimising stuck-at-wrong cells (:class:`SawCost`);
* lexicographic combinations — "optimise energy first, SAW second" and
  vice versa — via :class:`LexicographicCost` (Section VI-B).

Costs are evaluated per cell so the same function can score a whole word,
a 16-bit sub-block, or a batch of candidates at once.  Two batched entry
points exist above the word level:

* :meth:`CostFunction.line_cell_costs` scores a ``(candidates, words,
  cells)`` batch against one :class:`~repro.coding.base.LineContext` (one
  cache line);
* :meth:`CostFunction.batch_line_cell_costs` scores a ``(lines,
  candidates, words, cells)`` batch against one
  :class:`~repro.coding.base.LineBatch`, whose ``(lines, words, cells)``
  arrays it reads directly; this is how
  :meth:`repro.coding.base.Encoder.encode_lines` evaluates the
  candidate×word costs of a whole batch of queued writes in one kernel.

Every builtin cost is *cellwise* — the cost of a cell depends only on that
cell's new value and the write-time context of that cell — which admits an
evaluation trick the multi-line path leans on: build a tiny per-cell
transition table (:meth:`CostFunction.transition_tables`, one entry per
possible cell value) with a single elementwise pass, then score any number
of candidates with one gather.  The gathered values are bit-identical to
the elementwise pipeline because every table entry is produced by exactly
that pipeline.

RCC and VCC go one step further and score all their candidates with
matrix products read straight off the tables:

* RCC: ``(words, cells*levels)`` tables times a fixed ``(cells*levels,
  cosets)`` one-hot coset matrix (:meth:`repro.coding.rcc.RCCEncoder.encode_lines`);
* VCC with a stored ROM over the full word: the same product per
  partition, ``(words*partitions, partition_cells*levels)`` against a
  one-hot matrix of the ``2r`` XOR and XNOR kernel forms;
* VCC on the right-digit plane: a cell's left digit is fixed, so it has
  just two costs, ``a0``/``a1`` for kernel bit 0/1.  One batched product
  ``S = (a1 - a0) @ kernel_bits`` scores every kernel of every partition:
  the XOR form costs ``sum(a0) + S`` and the XNOR form ``sum(a1) - S``
  (:meth:`repro.core.vcc.VCCEncoder.encode_lines`).

Each product sums table entries (and their differences) times exact 0/1
weights, so it equals the scalar path's pairwise sum bit for bit whenever
the entries are finite integers and every partial sum stays below
``2**53`` in magnitude: every partial sum is then an exactly representable
integer, whatever order BLAS adds in.  :func:`exact_table_sums` checks that
per call from the largest entry and the number of summed terms (``cells``
for RCC, ``2 * cells`` for VCC, whose ``a1 - a0`` differences can double an
entry).  Every builtin cost meets it at its default energy model (the MLC
LUT holds 0, 2 or 20 pJ, SLC 1 or 2 pJ, the counts are integers, the
lexicographic scale is 1e6).  Tables that do not (a fractional LUT or
scale, ``inf``, huge values) are scored by the 4-D gather kernel instead.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

import repro.obs as obs
from repro.coding.base import LineBatch, LineContext, WordContext
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology
from repro.pcm.energy import MLCEnergyModel, SLCEnergyModel, DEFAULT_MLC_ENERGY, DEFAULT_SLC_ENERGY
from repro.utils.bitops import popcount64_array

__all__ = [
    "CostFunction",
    "OnesCost",
    "BitChangeCost",
    "CellChangeCost",
    "EnergyCost",
    "SawCost",
    "LexicographicCost",
    "saw_then_energy",
    "energy_then_saw",
    "exact_table_sums",
]

#: Popcount of every possible cell value (cells hold at most 2 bits).
_CELL_POPCOUNT = np.array([0, 1, 1, 2], dtype=np.float64)

#: Flattened per-(old, new) LUTs of popcount(old ^ new), indexed by
#: ``(old << bits_per_cell) | new``; used by the batched cost paths.
_XOR_POPCOUNT_FLAT = {
    1: np.array(
        [bin((i >> 1) ^ (i & 1)).count("1") for i in range(4)], dtype=np.float64
    ),
    2: np.array(
        [bin((i >> 2) ^ (i & 3)).count("1") for i in range(16)], dtype=np.float64
    ),
}


# Batched-kernel telemetry, bumped once per batch call (never per cell):
# how many candidates the cost kernels scored (each line's candidates per
# word, summed over the batch's lines) and which evaluation strategy
# scored them.  RCC's and VCC's matrix-product paths bump the candidate
# and GEMM counters themselves.
_OBS_CANDIDATES = obs.counter(
    "encode.candidates",
    "candidates scored by the batched encoders: lines x candidates per word",
)
_OBS_KERNEL_GATHERS = obs.counter(
    "encode.kernel_gathers", "batch cost calls served by one transition-table gather"
)
_OBS_KERNEL_LINE_LOOPS = obs.counter(
    "encode.kernel_line_loops", "batch cost calls that fell back to the per-line loop"
)
_OBS_KERNEL_GEMMS = obs.counter(
    "encode.kernel_gemms",
    "RCC/VCC encode_lines calls scored by one matrix product of the cost tables",
)


def exact_table_sums(tables: np.ndarray, terms: int) -> bool:
    """True when summing up to ``terms`` entries of ``tables`` is exact.

    Holds when every entry is a finite integer and ``max|entry| * terms <
    2**53``: every partial sum of at most ``terms`` entries is then an
    exactly representable integer, so a matrix product that adds them in
    any order returns the scalar path's sum bit for bit.  ``inf`` and NaN
    fail the bound.
    """
    return bool(
        np.abs(tables).max() * terms < 2.0**53
        and np.array_equal(tables, np.trunc(tables))
    )


def _gather_transition_costs(tables: np.ndarray, new_cells: np.ndarray) -> np.ndarray:
    """Score a ``(lines, candidates, words, cells)`` batch from cost tables.

    ``tables`` is the ``(lines, words, cells, levels)`` output of
    :meth:`CostFunction.transition_tables`; the result has the shape and
    dtype the per-line pipeline would produce, with every element gathered
    from the table instead of recomputed.
    """
    lines, words, cells, levels = tables.shape
    base = np.arange(lines * words * cells, dtype=np.intp).reshape(lines, 1, words, cells)
    base *= levels
    # A flat 1-D take hits numpy's fast contiguous-gather path.
    return np.take(tables.reshape(-1), (base + new_cells).ravel()).reshape(new_cells.shape)


class CostFunction(abc.ABC):
    """Scores candidate cell values against the write-time context."""

    #: Short name used in result tables.
    name: str = "cost"

    #: True when the cost of a cell depends only on that cell's new value
    #: and the context of that cell (old value, stuck flag) — i.e. not on
    #: the other cells of the candidate.  Enables the transition-table
    #: evaluation of :meth:`batch_line_cell_costs`.  Third-party subclasses
    #: inherit the conservative default and keep the per-line loop.
    cellwise: bool = False

    @abc.abstractmethod
    def cell_costs_matrix(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        """Per-cell costs for a batch of candidates.

        Parameters
        ----------
        new_cells:
            ``(num_candidates, num_cells)`` array of candidate cell values.
        context:
            The write-time context (old cell values, stuck mask).  Only the
            last ``num_cells`` entries of the context are used when the
            candidate covers a sub-block rather than a whole word; callers
            slice the context themselves via :meth:`slice_context`.
        """

    def cell_costs(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        """Per-cell costs for a single candidate (1-D convenience wrapper)."""
        new_cells = np.asarray(new_cells, dtype=np.uint8)
        return self.cell_costs_matrix(new_cells[None, :], context)[0]

    def word_cost(self, new_cells: np.ndarray, context: WordContext) -> float:
        """Total data-cell cost of a single candidate."""
        return float(self.cell_costs(new_cells, context).sum())

    def line_cell_costs(self, new_cells: np.ndarray, context: LineContext) -> np.ndarray:
        """Per-cell costs for a batch of candidates over a whole line.

        Parameters
        ----------
        new_cells:
            ``(num_candidates, num_words, num_cells)`` array of candidate
            cell values; every word of the line is offered the same number
            of candidates, each scored against that word's old cells.
        context:
            The line context (``(num_words, num_cells)`` old-cell and
            stuck matrices).

        Returns
        -------
        numpy.ndarray
            Costs of the same ``(num_candidates, num_words, num_cells)``
            shape.  The array must be freshly allocated (callers may
            accumulate into it in place) but may use any numeric dtype —
            e.g. :class:`SawCost` returns its boolean mismatch mask
            directly.  The default loops over the words of the line through
            :meth:`cell_costs_matrix`, so third-party cost functions work
            on the batched path unchanged; every builtin overrides it with
            a single broadcast evaluation.
        """
        new = np.asarray(new_cells, dtype=np.uint8)
        if new.ndim != 3:
            raise ConfigurationError(
                "line_cell_costs expects a (candidates, words, cells) array"
            )
        out = np.empty(new.shape, dtype=np.float64)
        for word_index in range(new.shape[1]):
            out[:, word_index, :] = self.cell_costs_matrix(
                new[:, word_index, :], context.word_context(word_index)
            )
        return out

    def batch_line_cell_costs(self, new_cells: np.ndarray, batch: LineBatch) -> np.ndarray:
        """Per-cell costs for a batch of candidates over many lines at once.

        Parameters
        ----------
        new_cells:
            ``(lines, candidates, words, cells)`` array of candidate cell
            values; line ``l`` is scored against ``batch.line(l)``.
        batch:
            The :class:`~repro.coding.base.LineBatch` of the lines'
            ``(lines, words, cells)`` old cells and stuck mask.

        Returns
        -------
        numpy.ndarray
            Costs of the same 4-D shape, dtype-compatible with what
            :meth:`line_cell_costs` returns per line.  For cellwise cost
            functions the default evaluates one transition-table gather;
            otherwise it loops :meth:`line_cell_costs` per line, so
            third-party cost functions work on the multi-line path
            unchanged.
        """
        new = self._validate_batch(new_cells, batch)
        tables = self.transition_tables(batch)
        if tables is not None:
            _OBS_KERNEL_GATHERS.inc()
            return _gather_transition_costs(tables, new)
        _OBS_KERNEL_LINE_LOOPS.inc()
        out: Optional[np.ndarray] = None
        for index in range(len(batch)):
            costs = self.line_cell_costs(new[index], batch.line(index))
            if out is None:
                out = np.empty(new.shape, dtype=costs.dtype)
            out[index] = costs
        return out

    def transition_tables(self, batch: LineBatch) -> Optional[np.ndarray]:
        """Per-cell write-cost tables, or None for non-cellwise costs.

        Returns a ``(lines, words, cells, levels)`` array whose entry
        ``[l, w, c, v]`` is the cost of writing cell value ``v`` to cell
        ``c`` of word ``w`` of line ``l``.  Built with a single
        :meth:`line_cell_costs` call over the constant level planes of a
        context covering every word of the batch, so every entry is
        bit-identical to the elementwise pipeline; encoders with structured
        candidates (e.g. RCC's XOR cosets, scored by one GEMM) read the
        table instead of materialising every candidate cell.
        """
        if not self.cellwise:
            return None
        lines, words, cells = batch.old_cells.shape
        flat = (lines * words, cells)
        stacked = LineContext(
            old_cells=batch.old_cells.reshape(flat),
            stuck_mask=None if batch.stuck_mask is None else batch.stuck_mask.reshape(flat),
            bits_per_cell=batch.bits_per_cell,
        )
        levels = 1 << batch.bits_per_cell
        planes = np.empty((levels, lines * words, cells), dtype=np.uint8)
        for value in range(levels):
            planes[value] = value
        table = self.line_cell_costs(planes, stacked)
        return np.ascontiguousarray(np.transpose(table, (1, 2, 0))).reshape(
            lines, words, cells, levels
        )

    @staticmethod
    def _validate_batch(new_cells: np.ndarray, batch: LineBatch) -> np.ndarray:
        """Shared argument validation of :meth:`batch_line_cell_costs`."""
        new = np.asarray(new_cells, dtype=np.uint8)
        if new.ndim != 4 or new.shape[0] == 0:
            raise ConfigurationError(
                "batch_line_cell_costs expects a non-empty "
                "(lines, candidates, words, cells) array"
            )
        if new.shape[0] != len(batch) or new.shape[2:] != batch.old_cells.shape[1:]:
            raise ConfigurationError(
                f"candidate cells of shape {new.shape} do not match a batch of "
                f"shape {batch.old_cells.shape}"
            )
        # Every batched cost path (base kernel and subclass overrides)
        # validates here, so this is the one chokepoint that sees all
        # candidate evaluations.
        _OBS_CANDIDATES.inc(int(new.shape[0]) * int(new.shape[1]))
        return new

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        """Cost of storing the auxiliary bits.

        The default charges the Hamming weight of the auxiliary value,
        matching line 19 of Algorithm 1 (the paper's ones-minimisation
        example); subclasses override this to charge bit changes or energy.
        """
        del old_aux, aux_bits
        return float(bin(new_aux).count("1"))

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        """Auxiliary-bit costs for a ``(candidates, words)`` batch.

        ``old_auxes`` holds one previous value per word and broadcasts
        against the candidate axis.  The default loops over
        :meth:`aux_cost` so subclasses that only override the scalar hook
        stay correct; builtins override this with vectorised popcounts.
        """
        new = np.asarray(new_auxes, dtype=np.int64)
        old = np.broadcast_to(np.asarray(old_auxes, dtype=np.int64), new.shape[-1:])
        out = np.empty(new.shape, dtype=np.float64)
        for position in np.ndindex(new.shape):
            out[position] = self.aux_cost(int(new[position]), int(old[position[-1]]), aux_bits)
        return out

    @staticmethod
    def slice_context(context: WordContext, start: int, stop: int) -> WordContext:
        """Restrict a context to the cells ``[start, stop)`` of the word."""
        stuck = context.stuck_mask[start:stop] if context.stuck_mask is not None else None
        return WordContext(
            old_cells=context.old_cells[start:stop],
            stuck_mask=stuck,
            bits_per_cell=context.bits_per_cell,
            old_aux=context.old_aux,
        )


def _changed_aux_bits(new_auxes: np.ndarray, old_auxes: np.ndarray) -> np.ndarray:
    """Vectorised popcount of ``new ^ old`` over a (candidates, words) batch."""
    new = np.asarray(new_auxes, dtype=np.uint64)
    old = np.broadcast_to(np.asarray(old_auxes, dtype=np.uint64), new.shape[-1:])
    return popcount64_array(new ^ old).astype(np.float64)


class OnesCost(CostFunction):
    """Number of '1' bits written (the Fig. 3 objective)."""

    name = "ones"
    cellwise = True

    def cell_costs_matrix(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        new = np.asarray(new_cells, dtype=np.int64)
        return _CELL_POPCOUNT[new]

    def line_cell_costs(self, new_cells: np.ndarray, context: LineContext) -> np.ndarray:
        del context
        return _CELL_POPCOUNT[np.asarray(new_cells, dtype=np.int64)]

    def batch_line_cell_costs(self, new_cells: np.ndarray, batch: LineBatch) -> np.ndarray:
        # Context-free: the popcount LUT applies directly to the 4-D batch.
        new = self._validate_batch(new_cells, batch)
        return _CELL_POPCOUNT[new.astype(np.int64)]

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        del old_auxes, aux_bits
        return popcount64_array(np.asarray(new_auxes, dtype=np.uint64)).astype(np.float64)


class BitChangeCost(CostFunction):
    """Number of bits that differ from the current cell contents."""

    name = "bit-changes"
    cellwise = True

    def cell_costs_matrix(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        new = np.asarray(new_cells, dtype=np.int64)
        old = np.asarray(context.old_cells[-new.shape[1]:], dtype=np.int64)
        return _CELL_POPCOUNT[new ^ old[None, :]]

    def line_cell_costs(self, new_cells: np.ndarray, context: LineContext) -> np.ndarray:
        lut = _XOR_POPCOUNT_FLAT[context.bits_per_cell]
        old_scaled = context.old_cells.astype(np.intp) << context.bits_per_cell
        return lut[old_scaled[None, :, :] + np.asarray(new_cells)]

    def batch_line_cell_costs(self, new_cells: np.ndarray, batch: LineBatch) -> np.ndarray:
        new = self._validate_batch(new_cells, batch)
        lut = _XOR_POPCOUNT_FLAT[batch.bits_per_cell]
        old_scaled = batch.old_cells.astype(np.intp) << batch.bits_per_cell
        return lut[old_scaled[:, None, :, :] + new]

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        del aux_bits
        return float(bin(new_aux ^ old_aux).count("1"))

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        del aux_bits
        return _changed_aux_bits(new_auxes, old_auxes)


class CellChangeCost(CostFunction):
    """Number of cells (symbols) that must be reprogrammed."""

    name = "cell-changes"
    cellwise = True

    def cell_costs_matrix(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        new = np.asarray(new_cells, dtype=np.int64)
        old = np.asarray(context.old_cells[-new.shape[1]:], dtype=np.int64)
        return (new != old[None, :]).astype(np.float64)

    def line_cell_costs(self, new_cells: np.ndarray, context: LineContext) -> np.ndarray:
        # Boolean 0/1 costs, promoted on demand (see SawCost).
        return np.asarray(new_cells) != context.old_cells[None, :, :]

    def batch_line_cell_costs(self, new_cells: np.ndarray, batch: LineBatch) -> np.ndarray:
        new = self._validate_batch(new_cells, batch)
        return new != batch.old_cells[:, None, :, :]

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        del aux_bits
        return float(bin(new_aux ^ old_aux).count("1"))

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        del aux_bits
        return _changed_aux_bits(new_auxes, old_auxes)


class EnergyCost(CostFunction):
    """Write energy of the transition from the current to the new cell values."""

    name = "energy"
    cellwise = True

    def __init__(
        self,
        technology: CellTechnology = CellTechnology.MLC,
        mlc_model: MLCEnergyModel = DEFAULT_MLC_ENERGY,
        slc_model: SLCEnergyModel = DEFAULT_SLC_ENERGY,
    ):
        self.technology = technology
        self.mlc_model = mlc_model
        self.slc_model = slc_model
        if technology is CellTechnology.MLC:
            self._lut = mlc_model.lut()
            self._aux_bit_energy = mlc_model.aux_bit_energy_pj
        else:
            self._lut = np.array(
                [
                    [0.0, slc_model.set_energy_pj],
                    [slc_model.reset_energy_pj, 0.0],
                ]
            )
            self._aux_bit_energy = slc_model.aux_bit_energy_pj
        # Flattened LUT for the batched path: a single uint8 gather index
        # (old << bits) | new is cheaper than two-array fancy indexing.
        self._levels = self._lut.shape[1]
        self._lut_flat = np.ascontiguousarray(self._lut.reshape(-1))

    def cell_costs_matrix(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        if context.bits_per_cell != self.technology.bits_per_cell:
            raise ConfigurationError(
                "EnergyCost technology does not match the context's cell technology"
            )
        new = np.asarray(new_cells, dtype=np.int64)
        old = np.asarray(context.old_cells[-new.shape[1]:], dtype=np.int64)
        return self._lut[old[None, :], new]

    def line_cell_costs(self, new_cells: np.ndarray, context: LineContext) -> np.ndarray:
        if context.bits_per_cell != self.technology.bits_per_cell:
            raise ConfigurationError(
                "EnergyCost technology does not match the context's cell technology"
            )
        # An intp gather index skips the int-conversion pass that fancy
        # indexing performs on small-integer index arrays.
        old_scaled = context.old_cells.astype(np.intp) * self._levels
        return self._lut_flat[old_scaled[None, :, :] + np.asarray(new_cells)]

    def batch_line_cell_costs(self, new_cells: np.ndarray, batch: LineBatch) -> np.ndarray:
        new = self._validate_batch(new_cells, batch)
        if batch.bits_per_cell != self.technology.bits_per_cell:
            raise ConfigurationError(
                "EnergyCost technology does not match the context's cell technology"
            )
        old_scaled = batch.old_cells.astype(np.intp) * self._levels
        return self._lut_flat[old_scaled[:, None, :, :] + new]

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        del aux_bits
        changed = bin(new_aux ^ old_aux).count("1")
        return changed * self._aux_bit_energy

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        del aux_bits
        return _changed_aux_bits(new_auxes, old_auxes) * self._aux_bit_energy


class SawCost(CostFunction):
    """Number of stuck cells whose intended value differs from the stuck value.

    A location without fault information (``context.stuck_mask is None``)
    costs zero everywhere, so SAW-aware optimisation degrades gracefully to
    a no-op on healthy rows.
    """

    name = "saw"
    cellwise = True

    def cell_costs_matrix(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        new = np.asarray(new_cells, dtype=np.int64)
        if context.stuck_mask is None:
            return np.zeros(new.shape, dtype=np.float64)
        old = np.asarray(context.old_cells[-new.shape[1]:], dtype=np.int64)
        stuck = np.asarray(context.stuck_mask[-new.shape[1]:], dtype=bool)
        mismatch = (new != old[None, :]) & stuck[None, :]
        return mismatch.astype(np.float64)

    def line_cell_costs(self, new_cells: np.ndarray, context: LineContext) -> np.ndarray:
        new = np.asarray(new_cells)
        if context.stuck_mask is None:
            return np.zeros(new.shape, dtype=np.float64)
        # Returned as a boolean 0/1 cost array; summing and combining with
        # float costs promotes it without an explicit conversion pass.
        return (new != context.old_cells[None, :, :]) & context.stuck_mask[None, :, :]

    def batch_line_cell_costs(self, new_cells: np.ndarray, batch: LineBatch) -> np.ndarray:
        new = self._validate_batch(new_cells, batch)
        if batch.stuck_mask is None:
            return np.zeros(new.shape, dtype=np.float64)
        return (new != batch.old_cells[:, None, :, :]) & batch.stuck_mask[:, None, :, :]

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        del new_aux, old_aux, aux_bits
        return 0.0

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        del old_auxes, aux_bits
        return np.zeros(np.asarray(new_auxes).shape, dtype=np.float64)


class LexicographicCost(CostFunction):
    """Combine two cost functions lexicographically (primary, then secondary).

    The combination is realised as ``primary * scale + secondary`` with a
    ``scale`` chosen large enough that any difference in the primary
    objective dominates every achievable secondary cost.  The default scale
    of 1e6 comfortably exceeds the worst-case per-word energy or bit count.
    """

    def __init__(self, primary: CostFunction, secondary: CostFunction, scale: float = 1.0e6):
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        self.primary = primary
        self.secondary = secondary
        self.scale = scale
        self.name = f"{primary.name}>{secondary.name}"
        # The combination is cellwise exactly when both parts are, in which
        # case the multi-line path fuses primary and secondary into a
        # single transition-table gather.
        self.cellwise = primary.cellwise and secondary.cellwise

    def cell_costs_matrix(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        return (
            self.primary.cell_costs_matrix(new_cells, context) * self.scale
            + self.secondary.cell_costs_matrix(new_cells, context)
        )

    def line_cell_costs(self, new_cells: np.ndarray, context: LineContext) -> np.ndarray:
        # line_cell_costs returns a fresh array, so float64 primaries can
        # be scaled and accumulated in place without extra temporaries.
        primary = self.primary.line_cell_costs(new_cells, context)
        if primary.dtype == np.float64:
            primary *= self.scale
            out = primary
        else:
            out = primary * self.scale
        out += self.secondary.line_cell_costs(new_cells, context)
        return out

    def batch_line_cell_costs(self, new_cells: np.ndarray, batch: LineBatch) -> np.ndarray:
        new = self._validate_batch(new_cells, batch)
        tables = self.transition_tables(batch)
        if tables is not None:
            # One fused gather replaces the scale-multiply-accumulate
            # pipeline: each table entry already holds primary * scale +
            # secondary for its (cell, value) pair.
            return _gather_transition_costs(tables, new)
        primary = self.primary.batch_line_cell_costs(new, batch)
        if primary.dtype == np.float64:
            primary *= self.scale
            out = primary
        else:
            out = primary * self.scale
        out += self.secondary.batch_line_cell_costs(new, batch)
        return out

    def aux_cost(self, new_aux: int, old_aux: int, aux_bits: int) -> float:
        return (
            self.primary.aux_cost(new_aux, old_aux, aux_bits) * self.scale
            + self.secondary.aux_cost(new_aux, old_aux, aux_bits)
        )

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        primary = self.primary.aux_costs_matrix(new_auxes, old_auxes, aux_bits)
        secondary = self.secondary.aux_costs_matrix(new_auxes, old_auxes, aux_bits)
        if not primary.any():
            # 0 * scale + x == x bit-for-bit, so an all-zero primary (e.g.
            # SawCost, which never charges auxiliary bits) short-circuits
            # the scale-multiply-accumulate over the candidate matrix.
            return secondary
        return primary * self.scale + secondary


def saw_then_energy(
    technology: CellTechnology = CellTechnology.MLC,
    mlc_model: MLCEnergyModel = DEFAULT_MLC_ENERGY,
    slc_model: SLCEnergyModel = DEFAULT_SLC_ENERGY,
) -> LexicographicCost:
    """The paper's "Opt. SAW" objective: SAW cells first, energy second."""
    return LexicographicCost(
        SawCost(), EnergyCost(technology, mlc_model=mlc_model, slc_model=slc_model)
    )


def energy_then_saw(
    technology: CellTechnology = CellTechnology.MLC,
    mlc_model: MLCEnergyModel = DEFAULT_MLC_ENERGY,
    slc_model: SLCEnergyModel = DEFAULT_SLC_ENERGY,
) -> LexicographicCost:
    """The paper's "Opt. Energy" objective: energy first, SAW cells second."""
    return LexicographicCost(
        EnergyCost(technology, mlc_model=mlc_model, slc_model=slc_model), SawCost()
    )
