"""Write-energy models for SLC and MLC PCM.

The MLC model reproduces Table I of the paper, which classifies every
old-state/new-state transition of a Gray-coded 4-level cell as either

* ``-`` (no programming needed, the cell already holds the value),
* ``low`` (a single SET or RESET pulse reaches the target state), or
* ``high`` (the target is an intermediate state that needs the full
  SET+RESET preamble followed by program-and-verify).

The defining structural property — the one every experiment depends on —
is that a transition is *high* exactly when the new symbol's right digit is
one (symbols ``01`` and ``11``), is *zero-cost* when the symbol does not
change, and is *low* otherwise.  The absolute picojoule values are model
parameters; the defaults follow the prototype MLC device used by the paper
(intermediate states cost roughly an order of magnitude more than a plain
SET/RESET).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bitops import split_symbols

__all__ = ["MLCEnergyModel", "SLCEnergyModel", "DEFAULT_MLC_ENERGY", "DEFAULT_SLC_ENERGY"]


def _check_energies(model) -> None:
    """Reject any energy field that is negative, NaN or infinite.

    Every field becomes a cost-table entry verbatim, so one NaN would
    silently poison every candidate's cost.
    """
    for item in fields(model):
        value = getattr(model, item.name)
        if not (math.isfinite(value) and value >= 0):
            raise ConfigurationError(
                f"{item.name} must be a finite non-negative energy, got {value!r}"
            )


@dataclass(frozen=True)
class MLCEnergyModel:
    """Symbol-transition write energy for a 4-level Gray-coded PCM cell.

    Parameters
    ----------
    low_energy_pj:
        Energy of a "low" transition (single SET or RESET pulse), in pJ.
    high_energy_pj:
        Energy of a "high" transition (programming an intermediate state),
        in pJ.  The paper reports intermediate states cost up to an order
        of magnitude more than low transitions.
    same_state_energy_pj:
        Energy charged when the new symbol equals the old symbol.  A
        differential-write memory does not program unchanged cells, so the
        default is zero.
    aux_bit_energy_pj:
        Energy charged per auxiliary bit that changes value.  Auxiliary
        bits live in ordinary (SLC-like) cells next to the data.
    """

    low_energy_pj: float = 2.0
    high_energy_pj: float = 20.0
    same_state_energy_pj: float = 0.0
    aux_bit_energy_pj: float = 2.0

    def __post_init__(self) -> None:
        _check_energies(self)
        if self.high_energy_pj < self.low_energy_pj:
            raise ConfigurationError(
                "high_energy_pj must be >= low_energy_pj (intermediate states are the "
                "expensive ones in Table I)"
            )

    # ----------------------------------------------------------------- LUT
    def lut(self) -> np.ndarray:
        """Return the 4x4 transition-energy lookup table.

        ``lut()[old, new]`` is the energy (pJ) of programming a cell that
        currently holds symbol ``old`` to symbol ``new``.
        """
        table = np.empty((4, 4), dtype=np.float64)
        for old in range(4):
            for new in range(4):
                table[old, new] = self.transition_energy(old, new)
        return table

    def transition_energy(self, old_symbol: int, new_symbol: int) -> float:
        """Energy (pJ) to program one cell from ``old_symbol`` to ``new_symbol``."""
        if not 0 <= old_symbol <= 3 or not 0 <= new_symbol <= 3:
            raise ConfigurationError("MLC symbols must be in [0, 3]")
        if old_symbol == new_symbol:
            return self.same_state_energy_pj
        if new_symbol & 1:
            return self.high_energy_pj
        return self.low_energy_pj

    # ------------------------------------------------------------- vectors
    def symbols_energy(self, old_symbols: np.ndarray, new_symbols: np.ndarray) -> float:
        """Total energy to program arrays of old symbols to new symbols."""
        old = np.asarray(old_symbols, dtype=np.int64)
        new = np.asarray(new_symbols, dtype=np.int64)
        if old.shape != new.shape:
            raise ConfigurationError("old and new symbol arrays must have the same shape")
        return float(self.lut()[old, new].sum())  # repro: allow[NUM001] reason=the LUT gather copies into a fresh C-contiguous array, so the pairwise sum is layout-stable; per-word parity with symbol_energy is tested

    def symbols_energy_array(self, old_symbols: np.ndarray, new_symbols: np.ndarray) -> np.ndarray:
        """Per-cell energy array for arrays of old and new symbols."""
        old = np.asarray(old_symbols, dtype=np.int64)
        new = np.asarray(new_symbols, dtype=np.int64)
        return self.lut()[old, new]

    # --------------------------------------------------------------- words
    def word_energy(self, old_word: int, new_word: int, word_bits: int = 64) -> float:
        """Energy to overwrite ``old_word`` with ``new_word`` (both MLC encoded)."""
        old_syms = split_symbols(old_word, word_bits)
        new_syms = split_symbols(new_word, word_bits)
        return float(
            sum(self.transition_energy(o, n) for o, n in zip(old_syms, new_syms))
        )

    def aux_energy(self, old_aux: int, new_aux: int) -> float:
        """Energy to update the auxiliary bits from ``old_aux`` to ``new_aux``."""
        changed = bin(old_aux ^ new_aux).count("1")
        return changed * self.aux_bit_energy_pj


@dataclass(frozen=True)
class SLCEnergyModel:
    """Per-bit write energy for single-level cells.

    SET (programming a '1') and RESET (programming a '0') energies are
    asymmetric in PCM; unchanged cells cost nothing under differential
    write.
    """

    set_energy_pj: float = 1.0
    reset_energy_pj: float = 2.0
    aux_bit_energy_pj: float = 1.0

    def __post_init__(self) -> None:
        _check_energies(self)

    def bit_energy(self, old_bit: int, new_bit: int) -> float:
        """Energy (pJ) to program one SLC cell from ``old_bit`` to ``new_bit``."""
        if old_bit not in (0, 1) or new_bit not in (0, 1):
            raise ConfigurationError("SLC bits must be 0 or 1")
        if old_bit == new_bit:
            return 0.0
        return self.set_energy_pj if new_bit == 1 else self.reset_energy_pj

    def word_energy(self, old_word: int, new_word: int, word_bits: int = 64) -> float:
        """Energy to overwrite an SLC word (differential write)."""
        changed = old_word ^ new_word
        set_bits = bin(changed & new_word).count("1")
        reset_bits = bin(changed & ~new_word & ((1 << word_bits) - 1)).count("1")
        return set_bits * self.set_energy_pj + reset_bits * self.reset_energy_pj

    def aux_energy(self, old_aux: int, new_aux: int) -> float:
        """Energy to update the auxiliary bits from ``old_aux`` to ``new_aux``."""
        changed = bin(old_aux ^ new_aux).count("1")
        return changed * self.aux_bit_energy_pj


#: Default MLC energy model used by every experiment unless overridden.
DEFAULT_MLC_ENERGY = MLCEnergyModel()

#: Default SLC energy model.
DEFAULT_SLC_ENERGY = SLCEnergyModel()
