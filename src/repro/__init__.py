"""repro — a reproduction of "Virtual Coset Coding for Encrypted Non-Volatile
Memories with Multi-Level Cells" (HPCA 2022).

The package is organised bottom-up:

* substrates — :mod:`repro.crypto` (counter-mode encryption),
  :mod:`repro.pcm` (MLC/SLC PCM cells, energy, endurance, fault maps,
  array), :mod:`repro.ecc` (SECDED, ECP), :mod:`repro.traces` (synthetic
  SPEC-like writeback workloads), :mod:`repro.hardware` and
  :mod:`repro.perf` (encoder hardware and system timing models);
* encodings — :mod:`repro.coding` (baselines: DBI, FNW, Flipcy, BCC, RCC)
  and :mod:`repro.core` (the paper's Virtual Coset Coding);
* integration — :mod:`repro.memctrl` (the encrypt -> encode -> write
  memory controller) and :mod:`repro.sim` / :mod:`repro.experiments`
  (the per-figure experiment harness);
* orchestration — :mod:`repro.campaign` (declarative sweep grids run on
  worker processes with content-addressed caching and resume;
  ``python -m repro.campaign``).

Quick start — encoders are resolved by short name through the plugin
registry, and the hot path operates on whole cache lines::

    from repro import LineBatch, LineContext, make_encoder
    from repro.coding.cost import EnergyCost

    encoder = make_encoder("vcc", num_cosets=256, cost_function=EnergyCost())
    context = LineContext.blank(words_per_line=8, word_bits=64, bits_per_cell=2)
    line = [0xDEADBEEFCAFEF00D] * 8
    encoded = encoder.encode_line(line, context)
    assert encoder.decode_line(encoded.codewords, encoded.auxes) == line

    # Many lines at once: a LineBatch in, (lines, words) arrays out.
    batch = LineBatch.from_lines([context, context])
    result = encoder.encode_lines([line, line], batch)
    assert result.codewords.shape == (2, 8) and result[1] == encoded

``encode_line`` is a one-line view of the batched ``encode_lines`` that the
memory controller's replay waves call with one :class:`LineBatch` of
stacked ``(lines, words, cells)`` row gathers, reading the codewords and
auxiliary values straight from the returned :class:`EncodedBatch` arrays.
The word-granular API (:meth:`Encoder.encode` with a :class:`WordContext`)
is the reference oracle; ``encode_lines`` falls back to it for encoders
that only implement the scalar interface.
"""

from repro.coding import (
    BCCEncoder,
    DBIEncoder,
    EncodedBatch,
    EncodedLine,
    EncodedWord,
    Encoder,
    FNWEncoder,
    FlipcyEncoder,
    LineBatch,
    LineContext,
    RCCEncoder,
    UnencodedEncoder,
    WordContext,
    available_encoders,
    make_encoder,
    register_encoder,
)
from repro.campaign import ResultStore, SweepSpec, Task, register_task, run_campaign
from repro.core import VCCConfig, VCCEncoder
from repro.memctrl import ControllerConfig, MemoryController
from repro.pcm import CellTechnology, EnduranceModel, FaultMap, MLCEnergyModel, PCMArray
from repro.traces import Trace, generate_trace

__version__ = "1.2.0"

__all__ = [
    "BCCEncoder",
    "CellTechnology",
    "ControllerConfig",
    "DBIEncoder",
    "EncodedBatch",
    "EncodedLine",
    "EncodedWord",
    "Encoder",
    "EnduranceModel",
    "FNWEncoder",
    "FaultMap",
    "FlipcyEncoder",
    "LineBatch",
    "LineContext",
    "MLCEnergyModel",
    "MemoryController",
    "PCMArray",
    "RCCEncoder",
    "ResultStore",
    "SweepSpec",
    "Task",
    "Trace",
    "UnencodedEncoder",
    "VCCConfig",
    "VCCEncoder",
    "WordContext",
    "__version__",
    "available_encoders",
    "generate_trace",
    "make_encoder",
    "register_encoder",
    "register_task",
    "run_campaign",
]
