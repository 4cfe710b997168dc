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

Fields are given in pJ but must be whole femtojoules: each model's
:meth:`~MLCEnergyModel.lut` is an int64 fJ table, and the memory
controller charges writes in int64 fJ, so energy totals are exact in any
summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bitops import split_symbols

__all__ = [
    "MLCEnergyModel",
    "SLCEnergyModel",
    "DEFAULT_MLC_ENERGY",
    "DEFAULT_SLC_ENERGY",
    "MAX_ENERGY_PJ",
]


#: Largest energy a model accepts for one transition or aux bit, in pJ:
#: 1e9 fJ, so an int64 fJ total holds over 9e9 charges at the maximum.
MAX_ENERGY_PJ = 1e6


def _fj(energy_pj: float) -> int:
    """``energy_pj`` in whole femtojoules (exact for a checked model field)."""
    return round(energy_pj * 1000)


class _EnergyModel:
    """The checks and auxiliary-bit charge shared by both energy models.

    Accounting charges int64 femtojoules, so an energy total is exact in
    any summation order.  Every field is therefore a whole number of fJ in
    ``[0, MAX_ENERGY_PJ]`` pJ; anything else (a negative, NaN or infinite
    value included) raises :class:`~repro.errors.ConfigurationError` at
    construction.
    """

    aux_bit_energy_pj: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (math.isfinite(value) and 0 <= value <= MAX_ENERGY_PJ):
                raise ConfigurationError(
                    f"{name} must be a finite energy in [0, {MAX_ENERGY_PJ:g}] pJ, got {value!r}"
                )
            if _fj(value) / 1000 != value:
                raise ConfigurationError(f"{name} must be a whole number of fJ, got {value!r} pJ")

    @property
    def aux_bit_energy_fj(self) -> int:
        """Energy charged per changed auxiliary bit, in fJ."""
        return _fj(self.aux_bit_energy_pj)

    def aux_energy(self, old_aux: int, new_aux: int) -> float:
        """Energy (pJ) to update the auxiliary bits from ``old_aux`` to ``new_aux``."""
        return bin(old_aux ^ new_aux).count("1") * self.aux_bit_energy_fj / 1000


@dataclass(frozen=True)
class MLCEnergyModel(_EnergyModel):
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
        super().__post_init__()
        if self.high_energy_pj < self.low_energy_pj:
            raise ConfigurationError(
                "high_energy_pj must be >= low_energy_pj (intermediate states are the "
                "expensive ones in Table I)"
            )

    # ----------------------------------------------------------------- LUT
    def lut(self) -> np.ndarray:
        """Return the 4x4 int64 transition-energy lookup table in fJ.

        ``lut()[old, new]`` is the energy (fJ) of programming a cell that
        currently holds symbol ``old`` to symbol ``new``.
        """
        return np.array(
            [[_fj(self.transition_energy(old, new)) for new in range(4)] for old in range(4)],
            dtype=np.int64,
        )

    def transition_energy(self, old_symbol: int, new_symbol: int) -> float:
        """Energy (pJ) to program one cell from ``old_symbol`` to ``new_symbol``."""
        if not 0 <= old_symbol <= 3 or not 0 <= new_symbol <= 3:
            raise ConfigurationError("MLC symbols must be in [0, 3]")
        if old_symbol == new_symbol:
            return self.same_state_energy_pj
        if new_symbol & 1:
            return self.high_energy_pj
        return self.low_energy_pj

    # --------------------------------------------------------------- words
    def word_energy(self, old_word: int, new_word: int, word_bits: int = 64) -> float:
        """Energy (pJ) to overwrite ``old_word`` with ``new_word`` (both MLC encoded)."""
        old_syms = split_symbols(old_word, word_bits)
        new_syms = split_symbols(new_word, word_bits)
        return sum(_fj(self.transition_energy(o, n)) for o, n in zip(old_syms, new_syms)) / 1000


@dataclass(frozen=True)
class SLCEnergyModel(_EnergyModel):
    """Per-bit write energy for single-level cells.

    SET (programming a '1') and RESET (programming a '0') energies are
    asymmetric in PCM; unchanged cells cost nothing under differential
    write.
    """

    set_energy_pj: float = 1.0
    reset_energy_pj: float = 2.0
    aux_bit_energy_pj: float = 1.0

    def lut(self) -> np.ndarray:
        """Return the 2x2 int64 bit-transition lookup table in fJ (``[old, new]``)."""
        return np.array(
            [[_fj(self.bit_energy(old, new)) for new in (0, 1)] for old in (0, 1)],
            dtype=np.int64,
        )

    def bit_energy(self, old_bit: int, new_bit: int) -> float:
        """Energy (pJ) to program one SLC cell from ``old_bit`` to ``new_bit``."""
        if old_bit not in (0, 1) or new_bit not in (0, 1):
            raise ConfigurationError("SLC bits must be 0 or 1")
        if old_bit == new_bit:
            return 0.0
        return self.set_energy_pj if new_bit == 1 else self.reset_energy_pj

    def word_energy(self, old_word: int, new_word: int, word_bits: int = 64) -> float:
        """Energy (pJ) to overwrite an SLC word (differential write)."""
        changed = old_word ^ new_word
        set_bits = bin(changed & new_word).count("1")
        reset_bits = bin(changed & ~new_word & ((1 << word_bits) - 1)).count("1")
        return (set_bits * _fj(self.set_energy_pj) + reset_bits * _fj(self.reset_energy_pj)) / 1000


#: Default MLC energy model used by every experiment unless overridden.
DEFAULT_MLC_ENERGY = MLCEnergyModel()

#: Default SLC energy model.
DEFAULT_SLC_ENERGY = SLCEnergyModel()
