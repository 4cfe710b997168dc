"""Runtime fault repository.

The paper assumes "some such mechanism is in place" for identifying and
tracking stuck cells at run time (it cites bit-level fault repositories
such as FLOWER and ArchShield), so that the encoder knows which cells of a
row are stuck and at which value when it selects a coset.  This module
provides that mechanism instead of letting the encoder peek at the array's
ground truth:

* after every write the controller compares the read-back row with the
  intended row (PCM writes are verified anyway);
* any mismatching cell is recorded here as a discovered stuck-at fault
  together with the value it is stuck at;
* on the next write to that row the discovered faults are presented to the
  encoder as its :class:`~repro.coding.base.WordContext` stuck mask.

The repository therefore converges to the array's true fault population
one discovery per write, which is exactly how a real fault-tracking table
behaves; the "oracle" mode of the controller remains available for
experiments that want to isolate encoder quality from discovery latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["FaultRepository"]


class FaultRepository:
    """Tracks discovered stuck cells per physical row.

    Parameters
    ----------
    rows:
        Number of physical rows covered.
    cells_per_row:
        Cells per row.
    capacity_per_row:
        Optional cap on tracked faults per row, mimicking the finite
        storage of a hardware fault table.  ``None`` means unbounded.
    """

    def __init__(self, rows: int, cells_per_row: int, capacity_per_row: Optional[int] = None):
        if rows <= 0 or cells_per_row <= 0:
            raise ConfigurationError("rows and cells_per_row must be positive")
        if capacity_per_row is not None and capacity_per_row < 0:
            raise ConfigurationError("capacity_per_row must be non-negative")
        self.rows = rows
        self.cells_per_row = cells_per_row
        self.capacity_per_row = capacity_per_row
        self._known: Dict[int, Dict[int, int]] = {}
        #: Faults that could not be recorded because a row table was full.
        self.dropped_faults = 0

    # ------------------------------------------------------------ recording
    def observe_write(
        self, row_index: int, intended_cells: np.ndarray, stored_cells: np.ndarray
    ) -> int:
        """Record any cells whose stored value differs from the intended one.

        Returns the number of *newly* discovered faults.
        """
        self._check_row(row_index)
        intended = np.asarray(intended_cells)
        stored = np.asarray(stored_cells)
        if intended.shape != stored.shape or intended.shape != (self.cells_per_row,):
            raise ConfigurationError("cell arrays must match the repository geometry")
        mismatches = np.nonzero(intended != stored)[0]
        if len(mismatches) == 0:
            return 0
        table = self._known.setdefault(row_index, {})
        discovered = 0
        for position in mismatches:
            position = int(position)
            value = int(stored[position])
            if position in table:
                table[position] = value
                continue
            if self.capacity_per_row is not None and len(table) >= self.capacity_per_row:
                self.dropped_faults += 1
                continue
            table[position] = value
            discovered += 1
        return discovered

    def snapshot_rows(self, row_indices: Iterable[int]) -> Dict[int, Optional[Dict[int, int]]]:
        """Copies of the fault tables of several rows (``None``: no table).

        Paired with :meth:`restore_rows` to undo the discoveries of writes
        that the memory controller performed speculatively.
        """
        snapshot: Dict[int, Optional[Dict[int, int]]] = {}
        for row_index in row_indices:
            table = self._known.get(int(row_index))
            snapshot[int(row_index)] = None if table is None else dict(table)
        return snapshot

    def restore_rows(self, snapshot: Dict[int, Optional[Dict[int, int]]]) -> None:
        """Put back the row tables recorded by :meth:`snapshot_rows`."""
        for row_index, table in snapshot.items():
            if table is None:
                self._known.pop(row_index, None)
            else:
                self._known[row_index] = dict(table)

    # --------------------------------------------------------------- access
    def known_faults(self, row_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(positions, stuck_values)`` discovered for one row."""
        self._check_row(row_index)
        table = self._known.get(row_index, {})
        positions = np.array(sorted(table), dtype=np.int64)
        values = np.array([table[p] for p in sorted(table)], dtype=np.int64)
        return positions, values

    def stuck_mask(self, row_index: int) -> np.ndarray:
        """Dense boolean mask of discovered stuck cells for one row."""
        positions, _ = self.known_faults(row_index)
        mask = np.zeros(self.cells_per_row, dtype=bool)
        mask[positions] = True
        return mask

    def total_known_faults(self) -> int:
        """Total number of faults currently tracked."""
        return sum(len(table) for table in self._known.values())

    def rows_with_faults(self) -> int:
        """Number of rows with at least one tracked fault."""
        return len(self._known)

    # ------------------------------------------------------------ internals
    def _check_row(self, row_index: int) -> None:
        if not 0 <= row_index < self.rows:
            raise ConfigurationError(
                f"row index {row_index} out of range [0, {self.rows})"
            )
