"""Data-encoding techniques evaluated by the paper.

The package defines the encoder and cost-function interfaces shared by the
whole repository (:mod:`repro.coding.base`, :mod:`repro.coding.cost`) and
implements every baseline technique the paper compares against:

* :class:`~repro.coding.unencoded.UnencodedEncoder` — writeback as-is;
* :class:`~repro.coding.dbi.DBIEncoder` — data block inversion;
* :class:`~repro.coding.fnw.FNWEncoder` — Flip-N-Write at configurable
  sub-block granularity;
* :class:`~repro.coding.flipcy.FlipcyEncoder` — identity / 1's complement /
  2's complement selection;
* :class:`~repro.coding.bcc.BCCEncoder` — biased coset coding (the
  analytical "BCC" of Section III);
* :class:`~repro.coding.rcc.RCCEncoder` — random coset coding with stored
  full-length random cosets.

The paper's own contribution, Virtual Coset Coding, lives in
:mod:`repro.core` and implements the same :class:`~repro.coding.base.Encoder`
interface so simulators can swap techniques freely.

Every technique registers itself with the decorator-driven plugin registry
(:func:`~repro.coding.registry.register_encoder`); simulators and external
code resolve techniques by short name through
:func:`~repro.coding.registry.make_encoder`.  The line-granularity batch
interface (:class:`~repro.coding.base.LineContext`,
:meth:`~repro.coding.base.Encoder.encode_lines`) is the memory controller's
hot path; all builtins implement it with vectorised cost evaluation, and
:meth:`~repro.coding.base.Encoder.encode_line_scalar` is its word-level
oracle.
"""

from repro.coding.base import (
    EncodedLine,
    EncodedWord,
    Encoder,
    LineContext,
    WordContext,
    cells_matrix_to_words,
    words_matrix_to_cells,
    words_to_cell_matrix,
)
from repro.coding.cost import (
    BitChangeCost,
    CellChangeCost,
    CostFunction,
    EnergyCost,
    LexicographicCost,
    OnesCost,
    SawCost,
    energy_then_saw,
    saw_then_energy,
)
from repro.coding.unencoded import UnencodedEncoder
from repro.coding.dbi import DBIEncoder
from repro.coding.fnw import FNWEncoder
from repro.coding.flipcy import FlipcyEncoder
from repro.coding.bcc import BCCEncoder
from repro.coding.rcc import RCCEncoder
from repro.coding.registry import (
    EncoderPlugin,
    available_encoders,
    encoder_plugins,
    get_encoder_plugin,
    make_encoder,
    register_encoder,
    unregister_encoder,
)

__all__ = [
    "BCCEncoder",
    "BitChangeCost",
    "CellChangeCost",
    "CostFunction",
    "DBIEncoder",
    "EncodedLine",
    "EncodedWord",
    "Encoder",
    "EncoderPlugin",
    "EnergyCost",
    "FNWEncoder",
    "FlipcyEncoder",
    "LexicographicCost",
    "LineContext",
    "OnesCost",
    "RCCEncoder",
    "SawCost",
    "UnencodedEncoder",
    "WordContext",
    "available_encoders",
    "cells_matrix_to_words",
    "encoder_plugins",
    "energy_then_saw",
    "get_encoder_plugin",
    "make_encoder",
    "register_encoder",
    "saw_then_energy",
    "unregister_encoder",
    "words_matrix_to_cells",
    "words_to_cell_matrix",
]
