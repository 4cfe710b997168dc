"""Phase-change-memory (PCM) device and array models.

This package provides the memory substrate that every experiment in the
paper writes into:

* :mod:`repro.pcm.cell` — single-level (SLC) and 4-level (MLC) cell
  definitions with the Gray-coded level ordering used by the paper.
* :mod:`repro.pcm.energy` — the Table I symbol-transition write-energy
  model for MLC PCM and a simple asymmetric SLC model.
* :mod:`repro.pcm.endurance` — per-cell lifetime sampling (normal
  distribution around a mean write endurance with process variation).
* :mod:`repro.pcm.faultmap` — pre-generated stuck-at fault maps at a fixed
  incidence rate, with optional spatial (row-level) clustering.
* :mod:`repro.pcm.array` — a sparse, word/row addressable memory array
  that applies writes, accumulates wear, turns worn-out cells into
  stuck-at cells, and reports stuck-at-wrong (SAW) statistics.
* :mod:`repro.pcm.stats` — counters shared by the simulators.
"""

from repro.pcm.cell import CellTechnology, MLC_GRAY_LEVELS, gray_level_to_symbol, symbol_to_gray_level
from repro.pcm.energy import MLCEnergyModel, SLCEnergyModel, DEFAULT_MLC_ENERGY
from repro.pcm.endurance import EnduranceModel
from repro.pcm.faultmap import FaultMap, RowFaults
from repro.pcm.faultrepo import FaultRepository
from repro.pcm.array import PCMArray, RowSnapshot, RowWriteResult
from repro.pcm.stats import WriteStats
from repro.pcm.wearlevel import StartGapWearLeveler

__all__ = [
    "CellTechnology",
    "DEFAULT_MLC_ENERGY",
    "EnduranceModel",
    "FaultMap",
    "FaultRepository",
    "MLCEnergyModel",
    "MLC_GRAY_LEVELS",
    "PCMArray",
    "RowFaults",
    "RowSnapshot",
    "RowWriteResult",
    "SLCEnergyModel",
    "StartGapWearLeveler",
    "WriteStats",
    "gray_level_to_symbol",
    "symbol_to_gray_level",
]
