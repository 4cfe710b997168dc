"""Shared plumbing for the experiment simulators.

Every experiment builds the same stack — fault map / endurance model,
PCM array, encoder (by registry name with a cost function), memory
controller — and then drives it with either random lines or a synthetic
benchmark trace.  This module centralises that construction so the
per-figure simulators stay small and uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.coding.cost import (
    BitChangeCost,
    CellChangeCost,
    CostFunction,
    EnergyCost,
    OnesCost,
    SawCost,
    energy_then_saw,
    saw_then_energy,
)
from repro.coding.registry import make_encoder
from repro.ecc import ECP, ErrorCorrector, HammingSecded
from repro.errors import ConfigurationError, SimulationError
from repro.faults.registry import make_fault_model
from repro.memctrl.config import ControllerConfig
from repro.memctrl.controller import LineWriteResult, MemoryController, ReplayResult
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.pcm.energy import DEFAULT_MLC_ENERGY, MLCEnergyModel
from repro.pcm.faultmap import FaultMap
from repro.pcm.stats import WriteStats
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace
from repro.utils.bitops import random_word
from repro.utils.rng import make_rng

__all__ = [
    "FIGURE_GEOMETRY",
    "SNAPSHOT_FAULT_RATE",
    "TechniqueSpec",
    "build_controller",
    "cached_fault_map",
    "cached_trace",
    "checked_coset_counts",
    "drive_random_lines",
    "drive_random_lines_scalar",
    "drive_trace",
    "make_cost",
    "make_read_corrector",
    "scalar_random_line_results",
]

#: The memory geometry every energy and SAW figure cell records in its
#: task params (scaled down from the paper's 2 GB memory only in rows).
FIGURE_GEOMETRY: Dict[str, Any] = {
    "word_bits": 64,
    "line_bits": 512,
    "technology": CellTechnology.MLC.value,
}

#: The paper's extreme stuck-at incidence of the fault-snapshot figures.
SNAPSHOT_FAULT_RATE = 1e-2

#: Cost-function spellings accepted by :class:`TechniqueSpec.cost`.
_COST_NAMES = (
    "bit-changes",
    "cell-changes",
    "ones",
    "energy",
    "saw",
    "energy-then-saw",
    "saw-then-energy",
)


def make_cost(
    name: str,
    technology: CellTechnology = CellTechnology.MLC,
    mlc_energy: MLCEnergyModel = DEFAULT_MLC_ENERGY,
) -> CostFunction:
    """Build a cost function from its short name."""
    key = name.lower()
    if key == "bit-changes":
        return BitChangeCost()
    if key == "cell-changes":
        return CellChangeCost()
    if key == "ones":
        return OnesCost()
    if key == "energy":
        return EnergyCost(technology, mlc_model=mlc_energy)
    if key == "saw":
        return SawCost()
    if key == "energy-then-saw":
        return energy_then_saw(technology, mlc_model=mlc_energy)
    if key == "saw-then-energy":
        return saw_then_energy(technology, mlc_model=mlc_energy)
    raise ConfigurationError(f"unknown cost function {name!r}; expected one of {_COST_NAMES}")


def checked_coset_counts(coset_counts: Sequence[int], minimum: int = 1) -> List[int]:
    """Validate a coset-count sweep axis before any simulation work.

    The shared guard of every coset-grid task builder (fig1/fig2/fig7/
    fig8/fig12): each count must be an integer of at least ``minimum``,
    rejected here — when the grid is declared — rather than deep inside
    a worker process.
    """
    counts = []
    for cosets in coset_counts:
        if isinstance(cosets, bool) or not isinstance(cosets, (int, np.integer)):
            raise ConfigurationError(
                f"coset counts must be integers, got {cosets!r}"
            )
        count = int(cosets)
        if count < minimum:
            raise ConfigurationError(
                f"coset counts must be at least {minimum}, got {cosets!r}"
            )
        counts.append(count)
    return counts


@dataclass(frozen=True)
class TechniqueSpec:
    """One technique line in an experiment.

    Validated on construction: a misspelt cost name or a non-positive
    coset count raises :class:`~repro.errors.ConfigurationError` when the
    spec (and therefore the sweep grid) is built, before any array,
    encoder, or simulation work happens.

    Attributes
    ----------
    encoder:
        Registry name (``unencoded``, ``dbi``, ``fnw``, ``dbi/fnw``,
        ``flipcy``, ``bcc``, ``rcc``, ``vcc``, ``vcc-stored``).
    cost:
        Cost-function name from :func:`make_cost`.
    num_cosets:
        Coset-candidate count for coset techniques.
    label:
        Display label; defaults to the encoder name.
    corrector:
        Optional lifetime-study correction budget: ``None`` (any residual
        wrong bit kills the row), ``"secded"`` or ``"ecp3"``.
    fault_model:
        Optional :mod:`repro.faults` model name (``static-stuck-at``,
        ``row-correlated``, ``transient``, ``wear-drift``).  ``None``
        keeps the historical static stuck-at behaviour and leaves task
        hashes unchanged.
    """

    encoder: str
    cost: str = "energy-then-saw"
    num_cosets: int = 256
    label: str = ""
    corrector: Optional[str] = None
    fault_model: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.cost, str) or self.cost.lower() not in _COST_NAMES:
            raise ConfigurationError(
                f"unknown cost function {self.cost!r}; expected one of {_COST_NAMES}"
            )
        if self.fault_model is not None:
            # Resolve eagerly so a misspelt model name fails when the
            # sweep grid is declared, not inside a worker process.
            from repro.faults.registry import get_fault_model_class

            get_fault_model_class(self.fault_model)
        count = self.num_cosets
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ConfigurationError(
                f"num_cosets must be a positive integer, got {count!r}"
            )
        if count < 1:
            raise ConfigurationError(f"num_cosets must be at least 1, got {count}")
        object.__setattr__(self, "num_cosets", int(count))

    def display_name(self) -> str:
        """Label used in result tables."""
        return self.label or self.encoder


def make_read_corrector(name: Optional[str], line_bits: int = 512) -> Optional[ErrorCorrector]:
    """Build the ECC corrector named by a :class:`TechniqueSpec.corrector`.

    The single spelling of the corrector dispatch (``"secded"``,
    ``"ecpN"``) shared by the lifetime simulator's row-failure judge and
    the controller's transient-read correction path, so the two layers
    cannot drift apart.
    """
    if name is None:
        return None
    key = name.lower()
    if key == "secded":
        return HammingSecded()
    if key.startswith("ecp"):
        return ECP(entries_per_row=int(key[3:] or 3), row_bits=line_bits)
    raise ConfigurationError(f"unknown corrector {name!r}; expected 'secded' or 'ecpN'")


def build_controller(
    spec: TechniqueSpec,
    rows: int,
    technology: CellTechnology = CellTechnology.MLC,
    word_bits: int = 64,
    line_bits: int = 512,
    fault_map: Optional[FaultMap] = None,
    endurance_model: Optional[EnduranceModel] = None,
    seed: int = 0,
    encrypt: bool = True,
    use_fault_context: bool = True,
    mlc_energy: MLCEnergyModel = DEFAULT_MLC_ENERGY,
) -> MemoryController:
    """Build the full array + encoder + controller stack for one technique.

    When the spec names a :mod:`repro.faults` model, the model object is
    materialised once and handed to both the array (wear-drift
    thresholds) and the controller (transient sensing, corrected by the
    spec's ECC budget before the encoder observes a read).
    """
    cost = make_cost(spec.cost, technology, mlc_energy)
    encoder = make_encoder(
        spec.encoder,
        word_bits=word_bits,
        num_cosets=spec.num_cosets,
        technology=technology,
        cost_function=cost,
        seed=seed,
    )
    fault_model = make_fault_model(spec.fault_model) if spec.fault_model else None
    array = PCMArray(
        rows=rows,
        row_bits=line_bits,
        technology=technology,
        fault_map=fault_map,
        endurance_model=endurance_model,
        seed=seed,
        word_bits=word_bits,
        fault_model=fault_model,
    )
    read_corrector = None
    if fault_model is not None and fault_model.read_flip_rate > 0.0:
        read_corrector = make_read_corrector(spec.corrector, line_bits)
    return MemoryController(
        array=array,
        encoder=encoder,
        config=ControllerConfig(line_bits=line_bits, word_bits=word_bits, encrypt=encrypt),
        mlc_energy=mlc_energy,
        use_fault_context=use_fault_context,
        fault_model=fault_model,
        read_corrector=read_corrector,
    )


@lru_cache(maxsize=16)
def cached_trace(
    benchmark: str,
    num_writebacks: int,
    memory_lines: int,
    line_bits: int,
    word_bits: int,
    seed: int,
) -> Trace:
    """Per-process memo around :func:`generate_trace`.

    Campaign sweep cells are independent tasks, so every cell of one
    benchmark would otherwise regenerate the identical trace (the serial
    studies used to build it once per benchmark).  Construction is a
    pure function of the arguments and callers only read the trace, so
    sharing one instance per process changes nothing observable.
    """
    return generate_trace(
        benchmark,
        num_writebacks=num_writebacks,
        memory_lines=memory_lines,
        line_bits=line_bits,
        word_bits=word_bits,
        seed=seed,
    )


@lru_cache(maxsize=16)
def cached_fault_map(
    rows: int,
    cells_per_row: int,
    technology: CellTechnology,
    fault_rate: float,
    seed: int,
    model: str = "static-stuck-at",
) -> FaultMap:
    """Per-process memo around :class:`FaultMap` (see :func:`cached_trace`).

    Safe to share: :class:`~repro.pcm.array.PCMArray` copies the stuck
    positions/values into its own arrays at construction and never
    writes back into the map.  ``model`` selects the
    :mod:`repro.faults` model that shapes the stuck-at snapshot.
    """
    return FaultMap(
        rows=rows,
        cells_per_row=cells_per_row,
        technology=technology,
        fault_rate=fault_rate,
        seed=seed,
        model=model,
    )


def drive_random_lines(
    controller: MemoryController,
    num_lines: int,
    address_space: Optional[int] = None,
    seed: int = 0,
) -> WriteStats:
    """Write ``num_lines`` uniformly random cache lines to random addresses.

    Runs the batched
    :meth:`~repro.memctrl.controller.MemoryController.write_random_lines`
    driver: random line data is drawn in chunks (with the exact generator
    call sequence of the scalar loop, so addresses and words match
    :func:`drive_random_lines_scalar` bit for bit) and written through
    ``replay_trace``'s internals — chunked counter-mode pads, the
    identity-encoder fast path for unencoded baselines, and preallocated
    accounting arrays.

    Returns a fresh :class:`WriteStats` covering exactly this call's writes
    (mirroring :func:`drive_trace`'s per-call results), so callers consume
    the result directly instead of reaching into ``controller.stats`` by
    side effect — and phased drives on one controller don't alias.
    """
    if num_lines < 0:
        raise SimulationError("num_lines must be non-negative")
    rng = make_rng(seed, "random-lines")
    # Historical harness behaviour (shared with the scalar oracle): a
    # falsy address_space means "the whole array".
    address_space = address_space or controller.array.rows
    replay = controller.write_random_lines(num_lines, rng, address_space=address_space)
    return replay.write_stats()


def scalar_random_line_results(
    controller: MemoryController,
    num_lines: int,
    address_space: Optional[int] = None,
    seed: int = 0,
) -> List[LineWriteResult]:
    """The scalar random-line oracle loop, one result per write.

    This is the single definition of the reference draw-and-write
    sequence: one address draw plus one :func:`repro.utils.bitops.random_word`
    per word from the seeded stream, then one
    :meth:`~repro.memctrl.controller.MemoryController.write_line` call.
    :func:`drive_random_lines_scalar`, the parity tests, and
    ``benchmarks/bench_random_lines.py`` all wrap exactly this loop, so
    the oracle cannot drift between them.
    """
    if num_lines < 0:
        raise SimulationError("num_lines must be non-negative")
    rng = make_rng(seed, "random-lines")
    words_per_line = controller.config.words_per_line
    address_space = address_space or controller.array.rows
    results: List[LineWriteResult] = []
    for _ in range(num_lines):
        address = int(rng.integers(0, address_space))
        words = [random_word(rng, controller.config.word_bits) for _ in range(words_per_line)]
        results.append(controller.write_line(address, words))
    return results


def drive_random_lines_scalar(
    controller: MemoryController,
    num_lines: int,
    address_space: Optional[int] = None,
    seed: int = 0,
) -> WriteStats:
    """Scalar reference of :func:`drive_random_lines` (the parity oracle).

    Aggregates :func:`scalar_random_line_results` into a
    :class:`WriteStats` the way the harness always has.
    """
    results = scalar_random_line_results(controller, num_lines, address_space, seed)
    return WriteStats.from_line_results(results, controller.config.words_per_line)


def drive_trace(
    controller: MemoryController, trace: Trace, repetitions: int = 1
) -> ReplayResult:
    """Replay a writeback trace through the controller ``repetitions`` times.

    Runs the batched :meth:`~repro.memctrl.controller.MemoryController.replay_trace`
    engine and returns its :class:`~repro.memctrl.controller.ReplayResult`:
    per-write accounting in preallocated arrays (bit-identical to a
    scalar ``write_line`` loop), with ``write_stats()`` /
    ``total_energy_pj()`` aggregation helpers and ``line_results()`` for
    the scalar view.  Trace geometry is validated up front so a mismatched
    trace fails with a clear error instead of deep inside the write path.
    """
    if repetitions < 0:
        raise SimulationError("repetitions must be non-negative")
    if trace.word_bits != controller.config.word_bits:
        raise SimulationError(
            f"trace word size ({trace.word_bits} bits) does not match the "
            f"controller ({controller.config.word_bits} bits)"
        )
    if trace.words_per_line != controller.config.words_per_line:
        raise SimulationError(
            f"trace line geometry ({trace.words_per_line} words of "
            f"{trace.word_bits} bits per line) does not match the controller "
            f"({controller.config.words_per_line} words per line)"
        )
    return controller.replay_trace(trace, repetitions=repetitions)
