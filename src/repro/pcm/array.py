"""Sparse PCM array model with wear, stuck-at behaviour, and SAW accounting.

The array stores cell values (bits for SLC, 2-bit symbols for MLC) for a
memory organised as ``rows`` x ``row_bits``.  It supports the two
operating modes the paper's experiments need:

* **snapshot mode** — a pre-generated :class:`repro.pcm.faultmap.FaultMap`
  marks a fixed set of cells as stuck before the run and no wear
  accumulates (Figs. 2, 8, 9, 10);
* **lifetime mode** — every cell receives an endurance drawn from an
  :class:`repro.pcm.endurance.EnduranceModel`; each state-changing write
  increments the cell's wear and the cell becomes stuck at its current
  value once the wear reaches the endurance (Figs. 11, 12).

Writes go through :meth:`PCMArray.write_row` (or the word-granularity
convenience :meth:`PCMArray.write_word`), which applies the stuck-cell
semantics — a stuck cell silently keeps its value — and reports which
intended cell values could not be stored (stuck-at-wrong, SAW).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, MemoryModelError
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.pcm.faultmap import FaultMap
from repro.utils.rng import make_rng
from repro.utils.validation import require, require_divisible, require_word_bits, require_word_fits

if TYPE_CHECKING:  # pragma: no cover - annotation only; repro.faults imports repro.pcm
    from repro.faults.models import FaultModel

__all__ = ["PCMArray", "RowSnapshot", "RowWriteResult", "word_to_cells", "cells_to_word"]


def word_to_cells(word: int, word_bits: int, bits_per_cell: int) -> np.ndarray:
    """Convert a word integer into an array of cell values (MSB cell first)."""
    require_divisible(word_bits, bits_per_cell, "word_bits must be a multiple of bits_per_cell")
    cells = word_bits // bits_per_cell
    shifts = np.arange(cells - 1, -1, -1, dtype=np.uint64) * np.uint64(bits_per_cell)
    mask = np.uint64((1 << bits_per_cell) - 1)
    return ((np.uint64(word) >> shifts) & mask).astype(np.uint8)


def cells_to_word(cells: Sequence[int], bits_per_cell: int) -> int:
    """Inverse of :func:`word_to_cells`."""
    mask = (1 << bits_per_cell) - 1
    values = np.asarray(cells)
    if values.dtype.kind in "ui" and values.size * bits_per_cell <= 64:
        if values.size and (int(values.min()) < 0 or int(values.max()) > mask):
            bad = next(int(v) for v in values if int(v) < 0 or int(v) > mask)
            raise ConfigurationError(
                f"cell value {bad} does not fit in {bits_per_cell} bits"
            )
        shifts = np.arange(values.size - 1, -1, -1, dtype=np.uint64) * np.uint64(bits_per_cell)
        return int((values.astype(np.uint64) << shifts).sum(dtype=np.uint64))
    word = 0
    for value in cells:
        value = int(value)
        if value < 0 or value > mask:
            raise ConfigurationError(
                f"cell value {value} does not fit in {bits_per_cell} bits"
            )
        word = (word << bits_per_cell) | value
    return word


@dataclass
class RowWriteResult:
    """Outcome of a single row write.

    Attributes
    ----------
    old_cells:
        Cell values before the write.
    intended_cells:
        The values the caller asked to store.
    stored_cells:
        The values actually present after the write (stuck cells keep
        their stuck value).
    changed_mask:
        Boolean mask of cells whose stored value changed.
    saw_mask:
        Boolean mask of stuck cells whose stored value differs from the
        intended value (stuck-at-wrong).
    newly_stuck:
        Number of cells that exceeded their endurance during this write
        (always 0 in snapshot mode).
    """

    old_cells: np.ndarray
    intended_cells: np.ndarray
    stored_cells: np.ndarray
    changed_mask: np.ndarray
    saw_mask: np.ndarray
    newly_stuck: int = 0

    @property
    def cells_changed(self) -> int:
        """Number of cells whose stored value changed."""
        return int(self.changed_mask.sum())

    @property
    def saw_count(self) -> int:
        """Number of stuck-at-wrong cells produced by this write."""
        return int(self.saw_mask.sum())


@dataclass(frozen=True)
class RowSnapshot:
    """Saved device state of several rows, for undoing speculative writes.

    Returned by :meth:`PCMArray.write_rows_fast` as the rows' state before
    the write and put back by :meth:`PCMArray.restore_rows`.  ``wear`` is
    ``None`` when the array tracks no wear (snapshot mode).
    """

    rows: np.ndarray
    cells: np.ndarray
    stuck: np.ndarray
    wear: Optional[np.ndarray]

    def select(self, positions: np.ndarray) -> "RowSnapshot":
        """The snapshot restricted to the entries at ``positions``."""
        return RowSnapshot(
            rows=self.rows[positions],
            cells=self.cells[positions],
            stuck=self.stuck[positions],
            wear=None if self.wear is None else self.wear[positions],
        )


class PCMArray:
    """A rows x cells PCM array with stuck-at and wear semantics.

    Parameters
    ----------
    rows:
        Number of rows in the array.
    row_bits:
        Row width in bits (default 512, one cache line per row).
    technology:
        :class:`CellTechnology.SLC` or :class:`CellTechnology.MLC`.
    fault_map:
        Optional pre-generated stuck-at fault map (snapshot mode).
    endurance_model:
        Optional endurance model (lifetime mode).  May be combined with a
        fault map, in which case the map's cells start out stuck.
    seed:
        Seed controlling the random initial contents and the endurance
        samples.
    word_bits:
        Word granularity used by :meth:`read_word` / :meth:`write_word`.
    fault_model:
        Optional :class:`repro.faults.models.FaultModel` instance whose
        *dynamic* device effects attach here: a model that samples
        :meth:`~repro.faults.models.FaultModel.wear_thresholds` (e.g.
        ``wear-drift``) installs per-cell stuck thresholds so cells
        transition to stuck mid-replay.  An explicit ``endurance_model``
        always wins over the fault model's thresholds.
    """

    def __init__(
        self,
        rows: int,
        row_bits: int = 512,
        technology: CellTechnology = CellTechnology.MLC,
        fault_map: Optional[FaultMap] = None,
        endurance_model: Optional[EnduranceModel] = None,
        seed: Optional[int] = 0,
        word_bits: int = 64,
        fault_model: Optional["FaultModel"] = None,
    ):
        require(rows > 0, "rows must be positive")
        require(row_bits > 0, "row_bits must be positive")
        require_word_bits(word_bits)
        require_divisible(row_bits, technology.bits_per_cell, "row_bits must hold whole cells")
        require_divisible(row_bits, word_bits, "row_bits must hold whole words")
        require_divisible(word_bits, technology.bits_per_cell, "word_bits must hold whole cells")
        self.rows = rows
        self.row_bits = row_bits
        self.word_bits = word_bits
        self.technology = technology
        self.bits_per_cell = technology.bits_per_cell
        self.cells_per_row = row_bits // self.bits_per_cell
        self.cells_per_word = word_bits // self.bits_per_cell
        self.words_per_row = row_bits // word_bits
        self.fault_map = fault_map
        self.endurance_model = endurance_model
        self.fault_model = fault_model
        self.seed = seed

        if fault_map is not None:
            if fault_map.rows < rows or fault_map.cells_per_row != self.cells_per_row:
                raise MemoryModelError(
                    "fault map geometry does not match the array "
                    f"(map: {fault_map.rows}x{fault_map.cells_per_row}, "
                    f"array: {rows}x{self.cells_per_row})"
                )

        rng = make_rng(seed, "pcm-array-init")
        levels = technology.levels
        self._cells = rng.integers(0, levels, size=(rows, self.cells_per_row)).astype(np.uint8)
        self._stuck = np.zeros((rows, self.cells_per_row), dtype=bool)

        if fault_map is not None:
            for row_index in fault_map.faulty_rows():
                if row_index >= rows:
                    continue
                faults = fault_map.row_faults(row_index)
                self._stuck[row_index, faults.positions] = True
                self._cells[row_index, faults.positions] = faults.stuck_values.astype(np.uint8)

        if endurance_model is not None:
            total_cells = rows * self.cells_per_row
            lifetimes = endurance_model.sample(total_cells, rng=make_rng(seed, "pcm-endurance"))
            self._endurance: Optional[np.ndarray] = lifetimes.reshape(rows, self.cells_per_row)
            self._wear: Optional[np.ndarray] = np.zeros(
                (rows, self.cells_per_row), dtype=np.int64
            )
        else:
            self._endurance = None
            self._wear = None

        if fault_model is not None and self._endurance is None:
            thresholds = fault_model.wear_thresholds(rows, self.cells_per_row, seed)
            if thresholds is not None:
                if thresholds.shape != (rows, self.cells_per_row):
                    raise MemoryModelError(
                        "fault model wear thresholds have shape "
                        f"{thresholds.shape}, expected {(rows, self.cells_per_row)}"
                    )
                self._endurance = thresholds
                self._wear = np.zeros((rows, self.cells_per_row), dtype=np.int64)

    # ---------------------------------------------------------------- reads
    def read_row(self, row_index: int) -> np.ndarray:
        """Return a copy of the current cell values of ``row_index``."""
        self._check_row(row_index)
        return self._cells[row_index].copy()

    def read_word(self, row_index: int, word_index: int) -> int:
        """Return the word at ``(row_index, word_index)`` as an integer."""
        cells = self.read_word_cells(row_index, word_index)
        return cells_to_word(cells, self.bits_per_cell)

    def read_word_cells(self, row_index: int, word_index: int) -> np.ndarray:
        """Return a copy of the cells backing one word."""
        self._check_row(row_index)
        self._check_word(word_index)
        start = word_index * self.cells_per_word
        return self._cells[row_index, start: start + self.cells_per_word].copy()

    def read_rows(self, row_indices: np.ndarray) -> np.ndarray:
        """Copies of several rows' cell values gathered in one read.

        The batch sibling of :meth:`read_row` used by the memory
        controller's replay waves: one fancy-index gather returns a
        ``(len(row_indices), cells_per_row)`` matrix.
        """
        indices = self._check_rows(row_indices)
        return self._cells[indices]

    def stuck_rows(self, row_indices: np.ndarray) -> np.ndarray:
        """Copies of several rows' stuck masks gathered in one read."""
        indices = self._check_rows(row_indices)
        return self._stuck[indices]

    def stuck_info(self, row_index: int) -> np.ndarray:
        """Return the boolean stuck mask of a row (copy)."""
        self._check_row(row_index)
        return self._stuck[row_index].copy()

    # --------------------------------------------------------------- writes
    def write_row(self, row_index: int, intended_cells: Sequence[int]) -> RowWriteResult:
        """Write a full row of cell values, honouring stuck cells and wear.

        Parameters
        ----------
        row_index:
            Target row.
        intended_cells:
            ``cells_per_row`` cell values the caller wants stored.
        """
        self._check_row(row_index)
        intended = np.asarray(intended_cells, dtype=np.uint8)
        if intended.shape != (self.cells_per_row,):
            raise MemoryModelError(
                f"expected {self.cells_per_row} cell values, got shape {intended.shape}"
            )
        if intended.max(initial=0) >= self.technology.levels:
            raise MemoryModelError("cell value outside the technology's level range")
        old, stored, changed, saw_mask, newly_stuck = self.write_row_fast(row_index, intended)
        return RowWriteResult(
            old_cells=old,
            intended_cells=intended,
            stored_cells=stored,
            changed_mask=changed,
            saw_mask=saw_mask,
            newly_stuck=newly_stuck,
        )

    def write_row_fast(
        self, row_index: int, intended: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Validation-free core of :meth:`write_row` for batch drivers.

        ``intended`` must already be a ``(cells_per_row,)`` ``uint8`` array
        of in-range cell values and ``row_index`` must be valid — callers
        like :meth:`repro.memctrl.controller.MemoryController.replay_trace`
        establish both once per replay instead of once per write.  Returns
        the tuple ``(old_cells, stored_cells, changed_mask, saw_mask,
        newly_stuck)`` with exactly the values a :class:`RowWriteResult`
        would carry.
        """
        old = self._cells[row_index].copy()
        stuck = self._stuck[row_index]
        stored = np.where(stuck, old, intended)
        changed = stored != old

        newly_stuck = 0
        if self._wear is not None:
            wear_row = self._wear[row_index]
            # Branchless 0/1 add beats a boolean fancy-index increment.
            wear_row += changed
            exceeded = (~stuck) & (wear_row >= self._endurance[row_index])
            newly_stuck = int(exceeded.sum())
            if newly_stuck:
                self._stuck[row_index] |= exceeded

        self._cells[row_index] = stored
        saw_mask = self._stuck[row_index] & (stored != intended)
        return old, stored, changed, saw_mask, newly_stuck

    def write_rows_fast(
        self, row_indices: np.ndarray, intended: np.ndarray
    ) -> Tuple[RowSnapshot, np.ndarray, np.ndarray, np.ndarray]:
        """Apply one write to each of several *distinct* rows at once.

        The wave sibling of :meth:`write_row_fast`: ``row_indices`` must
        name pairwise-distinct valid rows and ``intended`` must be a
        matching ``(len(row_indices), cells_per_row)`` ``uint8`` matrix of
        in-range cell values.  Because the rows are distinct, the stuck /
        wear semantics of each row are independent and the whole batch
        reduces to one gather and one scatter per state array; every
        returned value is bit-identical to looping :meth:`write_row_fast`
        in order.  Returns ``(before, stored_rows, changed_mask,
        newly_stuck)``: ``before`` is the :class:`RowSnapshot` of the rows'
        cells, stuck masks and wear ahead of the write (so
        :meth:`restore_rows` of it undoes the write), the rest carry a
        leading batch axis (``newly_stuck`` is an ``int64`` vector).
        """
        old = self._cells[row_indices]
        stuck = self._stuck[row_indices]
        stored = np.where(stuck, old, intended)
        changed = stored != old

        wear = None
        if self._wear is not None:
            wear = self._wear[row_indices]
            worn = wear + changed
            self._wear[row_indices] = worn
            exceeded = (~stuck) & (worn >= self._endurance[row_indices])
            newly_stuck = exceeded.sum(axis=1, dtype=np.int64)
            if newly_stuck.any():
                self._stuck[row_indices] = stuck | exceeded
        else:
            newly_stuck = np.zeros(len(row_indices), dtype=np.int64)

        self._cells[row_indices] = stored
        before = RowSnapshot(rows=row_indices, cells=old, stuck=stuck, wear=wear)
        return before, stored, changed, newly_stuck

    def restore_rows(self, snapshot: RowSnapshot) -> None:
        """Put the rows of ``snapshot`` back to the state it recorded.

        The snapshot's rows must be pairwise distinct.
        """
        self._cells[snapshot.rows] = snapshot.cells
        self._stuck[snapshot.rows] = snapshot.stuck
        if self._wear is not None and snapshot.wear is not None:
            self._wear[snapshot.rows] = snapshot.wear

    def write_word(self, row_index: int, word_index: int, word: int) -> RowWriteResult:
        """Write a single word, leaving the rest of the row untouched.

        A word outside ``[0, 2**word_bits)`` raises :class:`MemoryModelError`.
        """
        self._check_row(row_index)
        self._check_word(word_index)
        require_word_fits(word, self.word_bits, MemoryModelError)
        intended_row = self._cells[row_index].copy()
        start = word_index * self.cells_per_word
        intended_row[start: start + self.cells_per_word] = word_to_cells(
            word, self.word_bits, self.bits_per_cell
        )
        return self.write_row(row_index, intended_row)

    # ---------------------------------------------------------- diagnostics
    def stuck_cell_count(self) -> int:
        """Total number of stuck cells in the array."""
        return int(self._stuck.sum())

    def wear_of_row(self, row_index: int) -> np.ndarray:
        """Return a copy of the per-cell wear counters of a row."""
        self._check_row(row_index)
        if self._wear is None:
            return np.zeros(self.cells_per_row, dtype=np.int64)
        return self._wear[row_index].copy()

    def row_cells(self) -> int:
        """Number of cells per row (convenience alias)."""
        return self.cells_per_row

    # ------------------------------------------------------------ internals
    def _check_row(self, row_index: int) -> None:
        if not 0 <= row_index < self.rows:
            raise MemoryModelError(f"row index {row_index} out of range [0, {self.rows})")

    def _check_rows(self, row_indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(row_indices, dtype=np.intp)
        if indices.size and (
            int(indices.min()) < 0 or int(indices.max()) >= self.rows
        ):
            raise MemoryModelError(
                f"row indices must lie in [0, {self.rows}), got {row_indices!r}"
            )
        return indices

    def _check_word(self, word_index: int) -> None:
        if not 0 <= word_index < self.words_per_row:
            raise MemoryModelError(
                f"word index {word_index} out of range [0, {self.words_per_row})"
            )
