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

The whole data-cell contract of a cost is one small table:
:meth:`CostFunction.cell_table` returns a ``(2, levels, levels)`` float
array whose entry ``[stuck, old, new]`` is the cost of writing ``new`` over
a cell holding ``old`` that is stuck (1) or not (0).  Every cell-cost
evaluation is a gather from it, so the scalar and batched paths agree bit
for bit by construction:

* :meth:`CostFunction.cell_costs_matrix`, the scalar oracles' entry point,
  scores ``(candidates, cells)`` against one
  :class:`~repro.coding.base.WordContext`;
* :meth:`CostFunction.batch_line_cell_costs` scores a ``(lines,
  candidates, words, cells)`` batch against one
  :class:`~repro.coding.base.LineBatch` with one flat gather; this is how
  :meth:`repro.coding.base.Encoder.encode_lines` scores a whole batch.

A third-party cost that used to override ``cell_costs_matrix`` (and set
``cellwise``) implements :meth:`~CostFunction.cell_table` instead, evaluating
its per-cell rule once per ``(stuck, old, new)``; a cost that depends on more
than one cell of a candidate cannot be expressed.  Auxiliary bits keep
their own :meth:`~CostFunction.aux_cost`/:meth:`~CostFunction.aux_costs_matrix`
hooks.

RCC and VCC go one step further and score all their candidates with
matrix products read off two tables that each cost derives on first use
and keeps on the instance next to its cell table:

* the *folded* table (:meth:`CostFunction._folded_table`), whose row
  ``(stuck * levels + old) * levels + data`` holds ``table[stuck, old, v ^
  data]`` at column ``v``, so one ``np.take`` at :func:`_folded_rows` gives
  every cell's costs addressed by the fixed coset or kernel cell ``v``;
* the aux table (:meth:`CostFunction._aux_table`), one
  :meth:`~CostFunction.aux_costs_matrix` call over every ``(old, new)``
  pair of a field up to :data:`AUX_TABLE_MAX_BITS` wide.  RCC, whose
  cosets are every aux value, reads one row per word; VCC, FNW and
  ``_select_best_lines`` take at ``old << aux_bits | new``
  (:meth:`CostFunction._aux_costs`).  Wider fields call
  :meth:`~CostFunction.aux_costs_matrix` per batch.

The products are:

* RCC: ``(words, cells*levels)`` folded rows times a fixed ``(cells*levels,
  cosets)`` one-hot coset matrix (:meth:`repro.coding.rcc.RCCEncoder.encode_lines`);
* VCC with a stored ROM over the full word: the same product per
  partition, ``(words*partitions, partition_cells*levels)`` against a
  one-hot matrix of the ``2r`` XOR and XNOR kernel forms;
* VCC on the right-digit plane: a cell's left digit is fixed, so it has
  just two costs, ``a0``/``a1`` for kernel bit 0/1, columns 0 and 1 of its
  folded row.  The XOR form of a partition costs ``A0 + F`` and the XNOR
  form ``A1 - F``, so one batched product ``g = (a1 - a0) @ signs``, the
  kernel bits as +1/-1, is the margin ``xor - xnor`` of every kernel of
  every partition: the XNOR form wins where ``g > 0``, and the cheaper
  forms sum to ``(sum(a0 + a1) - sum(|g|)) / 2``
  (:meth:`repro.core.vcc.VCCEncoder._product_costs`).

Each product sums table entries (and their differences) times exact 0/1
or +1/-1 weights, so it equals the scalar path's sum bit for bit because
every cell table holds finite integers: :meth:`CostFunction._table` checks
that once per technology and raises
:class:`~repro.errors.ConfigurationError` otherwise.  The energy models
hold whole femtojoules and reject anything else at construction, but
:class:`EnergyCost` scores in pJ, so an energy model with a fractional
pJ entry cannot drive an encoder through it.  Every encoder also bounds
the table at construction, ``2 * cells_per_word * max|entry| < 2**53``
(:class:`repro.coding.base.Encoder`): every partial sum, including VCC's
``a0 + a1`` sums and ``a1 - a0`` differences, is then an exactly
representable integer, whatever order BLAS adds in.  Every builtin cost
meets both at its default energy model (the MLC LUT holds 0, 2 or 20 pJ,
SLC 1 or 2 pJ, the counts are integers, the lexicographic scale is 1e6).
Auxiliary costs need no such check: the scalar and batched totals both add
them to the data cost with one float add.  The scalar oracles never read
the derived tables: they gather :meth:`~CostFunction.cell_table` entries
and call :meth:`~CostFunction.aux_cost` directly.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar, cast

import numpy as np

import repro.obs as obs
from repro.coding.base import LineBatch, WordContext
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
    "AUX_TABLE_MAX_BITS",
]

_T = TypeVar("_T")

#: Widest auxiliary field whose whole ``(old, new)`` cost table is cached:
#: ``4**aux_bits <= 2**16`` entries, 512 KiB of float64 at 8 bits (RCC-256
#: and VCC-256, the widest fields of the figures).
AUX_TABLE_MAX_BITS = 8


# Batched-kernel telemetry, bumped once per batch call (never per cell):
# how many candidates the cost kernels scored (each line's candidates per
# word, summed over the batch's lines).  The RCC/VCC matrix products never
# enter a cost kernel, so they bump it themselves.
_OBS_CANDIDATES = obs.counter(
    "encode.candidates",
    "candidates scored by the batched encoders: lines x candidates per word",
)


def _table_rows(levels: int, old_cells: np.ndarray, stuck_mask: Optional[np.ndarray]) -> np.ndarray:
    """Row ``stuck * levels + old`` of a ``(2 * levels, levels)`` cell table, per cell."""
    rows = old_cells.astype(np.intp)
    if stuck_mask is not None:
        rows += stuck_mask * levels
    return rows


def _folded_rows(batch: LineBatch, data_cells: np.ndarray) -> np.ndarray:
    """Each cell's row ``(stuck * levels + old) * levels + data`` of a folded table.

    ``data_cells`` holds the ``(lines * words, cells)`` data cells of the
    batch's words; the rows index :meth:`CostFunction._folded_table` in the
    same shape.
    """
    levels = 1 << batch.bits_per_cell
    rows = _table_rows(levels, batch.old_cells, batch.stuck_mask).reshape(data_cells.shape)
    rows *= levels
    rows += data_cells
    return rows


def _transitions(bits_per_cell: int) -> np.ndarray:
    """The ``old`` and ``new`` index grids of a ``(levels, levels)`` table."""
    return np.indices((1 << bits_per_cell,) * 2)


def _popcount(values: np.ndarray) -> np.ndarray:
    """Popcount of every entry of a small integer array."""
    return popcount64_array(values.astype(np.uint64))


def _ignoring_stuck(costs: np.ndarray) -> np.ndarray:
    """A ``(2, levels, levels)`` table whose stuck and free halves are both ``costs``."""
    return np.broadcast_to(costs, (2,) + costs.shape)


class CostFunction(abc.ABC):
    """Scores candidate cell values against the write-time context."""

    #: Short name used in result tables.
    name: str = "cost"

    @abc.abstractmethod
    def cell_table(self, bits_per_cell: int) -> np.ndarray:
        """Cost of every cell transition, indexed ``[stuck, old, new]``.

        Returns a ``(2, levels, levels)`` array for ``levels = 2 **
        bits_per_cell``: entry ``[s, o, n]`` is the cost of writing value
        ``n`` to a cell that holds ``o`` and is stuck (``s = 1``) or not
        (``s = 0``).  Raise :class:`~repro.errors.ConfigurationError` for a
        cell technology the cost does not model.
        """

    def _derived(self, key: Tuple[Any, ...], build: Callable[[], _T]) -> _T:
        """``build()``, computed on first use and kept on the instance under ``key``."""
        cache: Dict[Tuple[Any, ...], Any] = self.__dict__.setdefault("_derived_tables", {})
        if key not in cache:
            cache[key] = build()
        return cast(_T, cache[key])

    def _table(self, bits_per_cell: int) -> np.ndarray:
        """:meth:`cell_table` as read-only float64, checked and cached per technology.

        Every entry must be a finite integer, so that a sum of entries is
        exact in any order (see the module docstring); anything else raises
        :class:`~repro.errors.ConfigurationError`.
        """

        def build() -> np.ndarray:
            levels = 1 << bits_per_cell
            table = np.array(self.cell_table(bits_per_cell), dtype=np.float64)
            name = f"{type(self).__name__}.cell_table({bits_per_cell})"
            if table.shape != (2, levels, levels):
                raise ConfigurationError(
                    f"{name} has shape {table.shape}, expected {(2, levels, levels)}"
                )
            if not (np.isfinite(table).all() and (table == np.trunc(table)).all()):
                raise ConfigurationError(
                    f"{name} must hold finite integers; rescale fractional costs to "
                    "an integer unit (e.g. pJ to fJ, or an integer lexicographic scale)"
                )
            table.setflags(write=False)
            return table

        return self._derived(("cell", bits_per_cell), build)

    def _folded_table(self, bits_per_cell: int) -> np.ndarray:
        """The cell table with a data cell XOR-folded in, cached per technology.

        A read-only ``(2 * levels * levels, levels)`` array whose row
        ``(stuck * levels + old) * levels + data`` (see :func:`_folded_rows`)
        holds ``table[stuck, old, v ^ data]`` at column ``v``: the cost of
        writing ``data ^ v``, addressed by the mask cell ``v`` alone.
        """

        def build() -> np.ndarray:
            table = self._table(bits_per_cell)
            levels = table.shape[2]
            values = np.arange(levels)
            folded = table[:, :, values[:, None] ^ values].reshape(-1, levels)
            folded.setflags(write=False)
            return folded

        return self._derived(("folded", bits_per_cell), build)

    def cell_costs_matrix(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        """Per-cell costs for a batch of candidates: ``table[stuck, old, new]``.

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
        new = np.asarray(new_cells, dtype=np.intp)
        cells = new.shape[-1]
        table = self._table(context.bits_per_cell)
        levels = table.shape[2]
        stuck = None if context.stuck_mask is None else context.stuck_mask[-cells:]
        offsets = _table_rows(levels, context.old_cells[-cells:], stuck) * levels
        return np.take(table.reshape(-1), offsets + new)

    def cell_costs(self, new_cells: np.ndarray, context: WordContext) -> np.ndarray:
        """Per-cell costs for a single candidate (1-D convenience wrapper)."""
        new_cells = np.asarray(new_cells, dtype=np.uint8)
        return self.cell_costs_matrix(new_cells[None, :], context)[0]

    def word_cost(self, new_cells: np.ndarray, context: WordContext) -> float:
        """Total data-cell cost of a single candidate."""
        return float(self.cell_costs(new_cells, context).sum())

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
            Fresh float64 costs of the same 4-D shape, gathered from
            :meth:`cell_table` at ``((stuck * levels + old) * levels +
            new)``.
        """
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
        table = self._table(batch.bits_per_cell)
        levels = table.shape[2]
        offsets = _table_rows(levels, batch.old_cells, batch.stuck_mask) * levels
        # Every batched gather path scores here, so this is the one
        # chokepoint that sees all gathered candidate evaluations.
        _OBS_CANDIDATES.inc(int(new.shape[0]) * int(new.shape[1]))
        # A flat 1-D take hits numpy's fast contiguous-gather path.
        return np.take(table.reshape(-1), offsets[:, None] + new)

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

    def _aux_table(self, aux_bits: int, old_auxes: np.ndarray) -> Optional[np.ndarray]:
        """:meth:`aux_costs_matrix` of every ``(old, new)`` pair, as ``table[old, new]``.

        Built by one :meth:`aux_costs_matrix` call and cached per width;
        that method scores each ``(new, old)`` pair on its own, so every
        entry is the float64 it returns for the pair in any batch.  None
        when ``aux_bits`` exceeds :data:`AUX_TABLE_MAX_BITS` or a stored
        value in ``old_auxes`` does not fit the field; callers then call
        :meth:`aux_costs_matrix` themselves.
        """
        if aux_bits > AUX_TABLE_MAX_BITS or old_auxes.max(initial=0) >> aux_bits:
            return None

        def build() -> np.ndarray:
            values = np.arange(1 << aux_bits, dtype=np.int64)
            # Candidates are the new values and words the old ones: [new, old].
            costs = self.aux_costs_matrix(
                np.broadcast_to(values[:, None], (values.size, values.size)), values, aux_bits
            )
            table = np.array(np.asarray(costs).T, dtype=np.float64, order="C")
            table.setflags(write=False)
            return table

        return self._derived(("aux", aux_bits), build)

    def _aux_costs(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        """:meth:`aux_costs_matrix`, read from :meth:`_aux_table` where it applies.

        Same ``(candidates, words)`` contract and the same entries: one
        take at ``old << aux_bits | new`` when the table is cached and
        every value fits the field.
        """
        table = self._aux_table(aux_bits, old_auxes)
        if table is None or new_auxes.min(initial=0) < 0 or new_auxes.max(initial=0) >> aux_bits:
            return self.aux_costs_matrix(new_auxes, old_auxes, aux_bits)
        return np.take(table.reshape(-1), (old_auxes << aux_bits) | new_auxes)

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

    def cell_table(self, bits_per_cell: int) -> np.ndarray:
        _, new = _transitions(bits_per_cell)
        return _ignoring_stuck(_popcount(new))

    def aux_costs_matrix(
        self, new_auxes: np.ndarray, old_auxes: np.ndarray, aux_bits: int
    ) -> np.ndarray:
        del old_auxes, aux_bits
        return popcount64_array(np.asarray(new_auxes, dtype=np.uint64)).astype(np.float64)


class BitChangeCost(CostFunction):
    """Number of bits that differ from the current cell contents."""

    name = "bit-changes"

    def cell_table(self, bits_per_cell: int) -> np.ndarray:
        old, new = _transitions(bits_per_cell)
        return _ignoring_stuck(_popcount(old ^ new))

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

    def cell_table(self, bits_per_cell: int) -> np.ndarray:
        old, new = _transitions(bits_per_cell)
        return _ignoring_stuck(old != new)

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

    def __init__(
        self,
        technology: CellTechnology = CellTechnology.MLC,
        mlc_model: MLCEnergyModel = DEFAULT_MLC_ENERGY,
        slc_model: SLCEnergyModel = DEFAULT_SLC_ENERGY,
    ):
        self.technology = technology
        self.mlc_model = mlc_model
        self.slc_model = slc_model
        model = mlc_model if technology is CellTechnology.MLC else slc_model
        # Scores are in pJ: the model's whole-fJ table over 1000 gives each
        # field back exactly, and keeps LexicographicCost's scale meaningful.
        self._lut = model.lut() / 1000
        self._aux_bit_energy = model.aux_bit_energy_pj

    def cell_table(self, bits_per_cell: int) -> np.ndarray:
        if bits_per_cell != self.technology.bits_per_cell:
            raise ConfigurationError(
                "EnergyCost technology does not match the context's cell technology"
            )
        return _ignoring_stuck(self._lut)

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
    reads only the free half of the table, which is zero everywhere, so
    SAW-aware optimisation degrades gracefully to a no-op on healthy rows.
    """

    name = "saw"

    def cell_table(self, bits_per_cell: int) -> np.ndarray:
        old, new = _transitions(bits_per_cell)
        return np.stack([np.zeros(old.shape), old != new])

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
        if not (math.isfinite(scale) and scale > 0):
            raise ConfigurationError(f"scale must be finite and positive, got {scale!r}")
        self.primary = primary
        self.secondary = secondary
        self.scale = scale
        self.name = f"{primary.name}>{secondary.name}"

    def cell_table(self, bits_per_cell: int) -> np.ndarray:
        # Each entry is primary * scale + secondary, computed once here, so
        # every gather of the table reads the fused lexicographic cost.
        return self.primary._table(bits_per_cell) * self.scale + self.secondary._table(
            bits_per_cell
        )

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
