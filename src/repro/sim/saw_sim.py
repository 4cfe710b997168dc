"""Stuck-at-wrong (SAW) mitigation figures against a fixed fault snapshot.

* Fig. 2 — the motivation study: how the mean observed fault rate (wrong
  cells per written cell) drops as the number of random coset candidates
  grows (``fig2-masking-cell``);
* Fig. 8 — the total SAW cell count of VCC versus the unencoded baseline
  as a function of coset cardinality (``fig8-saw-cell``);
* Fig. 10 — the per-benchmark SAW cell count of VCC(64, 256, 16) versus
  the unencoded baseline (``fig10-saw-cell``).

All three use a pre-generated stuck-at fault map at the paper's extreme
1e-2 incidence rate and accumulate no additional wear during the run.
Each figure is a task kind, a task builder and a table, as in
:mod:`repro.sim.energy_sim`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.campaign.spec import Task
from repro.campaign.tasks import register_task
from repro.pcm.cell import CellTechnology
from repro.pcm.faultmap import FaultMap
from repro.pcm.stats import WriteStats
from repro.sim.harness import (
    FIGURE_GEOMETRY,
    SNAPSHOT_FAULT_RATE,
    TechniqueSpec,
    build_controller,
    cached_fault_map,
    cached_trace,
    checked_coset_counts,
    drive_random_lines,
    drive_trace,
)
from repro.sim.results import ResultTable
from repro.traces.trace import Trace
from repro.utils.rng import derive_seed

__all__ = [
    "benchmark_saw_table",
    "benchmark_saw_tasks",
    "fault_masking_table",
    "fault_masking_tasks",
    "saw_vs_coset_count_table",
    "saw_vs_coset_count_tasks",
]


def _cells_per_row(params: Dict[str, Any]) -> int:
    """Cells per row implied by one task's geometry."""
    return params["line_bits"] // CellTechnology(params["technology"]).bits_per_cell


def _snapshot(params: Dict[str, Any], label: str, model: Optional[str] = None) -> FaultMap:
    """The fault snapshot one task's geometry and seed label describe."""
    return cached_fault_map(
        rows=params["rows"],
        cells_per_row=_cells_per_row(params),
        technology=CellTechnology(params["technology"]),
        fault_rate=params["fault_rate"],
        seed=derive_seed(params["seed"], label),
        model=model or "static-stuck-at",
    )


def _run_spec(
    spec: TechniqueSpec,
    params: Dict[str, Any],
    fault_map: FaultMap,
    seed_label: str,
    trace: Optional[Trace] = None,
) -> WriteStats:
    """Write random lines (or ``trace``) through ``spec``'s stack; return its stats."""
    seed = params["seed"]
    controller = build_controller(
        spec,
        rows=params["rows"],
        technology=CellTechnology(params["technology"]),
        word_bits=params["word_bits"],
        line_bits=params["line_bits"],
        fault_map=fault_map,
        seed=derive_seed(seed, seed_label),
        encrypt=True,
    )
    if trace is None:
        return drive_random_lines(
            controller, params["num_writes"], seed=derive_seed(seed, seed_label + "-writes")
        )
    return drive_trace(controller, trace).write_stats()


def _random_base(rows: int, num_writes: int, seed: int) -> Dict[str, Any]:
    """The shared task parameters of the random-line SAW cells."""
    return dict(
        FIGURE_GEOMETRY,
        rows=rows,
        num_writes=num_writes,
        fault_rate=SNAPSHOT_FAULT_RATE,
        seed=seed,
    )


@register_task(
    "fig2-masking-cell",
    description="observed fault rate at one coset candidate count (Fig. 2 cell)",
)
def _fig2_masking_cell(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One coset-count cell of the Fig. 2 sweep.

    Every cell rebuilds the same shared fault snapshot (seed label
    ``fig2-faults``) and writes its own random lines (``fig2-{cosets}``).
    """
    cosets = params["cosets"]
    # Optional zoo selection: absent for legacy tasks (so their hashes —
    # and any stored results — are unchanged), a model name otherwise.
    fault_model = params.get("fault_model")
    fault_map = _snapshot(params, "fig2-faults", fault_model)
    if cosets <= 1:
        spec = TechniqueSpec(
            encoder="unencoded",
            cost="saw-then-energy",
            label="1 coset",
            fault_model=fault_model,
        )
    else:
        spec = TechniqueSpec(
            encoder="rcc",
            cost="saw-then-energy",
            num_cosets=cosets,
            label=f"{cosets} cosets",
            fault_model=fault_model,
        )
    stats = _run_spec(spec, params, fault_map, f"fig2-{cosets}")
    cells_written = stats.rows_written * _cells_per_row(params)
    rate = stats.saw_cells / cells_written if cells_written else 0.0
    return [
        {
            "cosets": cosets,
            "observed_fault_rate": rate,
            "saw_cells": int(stats.saw_cells),
            "cells_written": int(cells_written),
        }
    ]


def fault_masking_tasks(
    *,
    coset_counts: Sequence[int],
    rows: int,
    num_writes: int,
    seed: int,
    fault_model: Optional[str],
) -> List[Task]:
    """The Fig. 2 sweep as campaign tasks, one per coset count.

    ``fault_model`` selects a :mod:`repro.faults` model for every cell;
    ``None`` keeps the historical static snapshot and leaves the task
    hashes (and any cached results) untouched.
    """
    if fault_model is not None:
        TechniqueSpec(encoder="unencoded", fault_model=fault_model)  # eager name check
    base = _random_base(rows, num_writes, seed)
    if fault_model is not None:
        base["fault_model"] = fault_model
    return [
        Task(kind="fig2-masking-cell", params=dict(base, cosets=cosets))
        for cosets in checked_coset_counts(coset_counts, minimum=1)
    ]


def fault_masking_table(
    results: Sequence[Dict[str, Any]], *, fault_model: Optional[str], **_: Any
) -> ResultTable:
    """Fig. 2: mean observed fault rate as the coset candidate count grows.

    The observed fault rate is the number of stuck-at-wrong cells divided
    by the number of cells written; applying more random coset candidates
    lets more faulty cells be matched, so the rate falls monotonically (on
    average) with N.
    """
    notes = f"pre-generated fault map at rate {SNAPSHOT_FAULT_RATE}"
    if fault_model is not None:
        notes += f"; fault model {fault_model}"
    table = ResultTable(
        title="Fig. 2 — mean observed fault rate vs. number of coset codes",
        columns=["cosets", "observed_fault_rate", "saw_cells", "cells_written"],
        notes=notes,
    )
    return table.extend(results)


def _vcc_series(num_cosets: int) -> TechniqueSpec:
    """The "VCC" series of Figs. 8 and 10: stored kernels over the full word.

    The generated-kernel variant cannot change the left digit of a symbol
    and therefore cannot reach the paper's masking coverage (see DESIGN.md,
    data-representation notes).
    """
    return TechniqueSpec(
        encoder="vcc-stored", cost="saw-then-energy", num_cosets=num_cosets, label="VCC"
    )


_UNENCODED_SERIES = TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="Unencoded")


@register_task(
    "fig8-saw-cell",
    description="SAW cells of one series at one coset cardinality (Fig. 8 cell)",
)
def _fig8_saw_cell(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One (coset count × series) cell of the Fig. 8 sweep.

    ``series`` is ``"unencoded"`` or ``"vcc"``; seed derivation labels are
    ``fig8-faults`` and ``fig8-{series}-{cosets}``.
    """
    cosets = params["cosets"]
    series = params["series"]
    fault_map = _snapshot(params, "fig8-faults")
    spec = _UNENCODED_SERIES if series == "unencoded" else _vcc_series(cosets)
    stats = _run_spec(spec, params, fault_map, f"fig8-{series}-{cosets}")
    return [{"cosets": cosets, "series": series, "saw_cells": int(stats.saw_cells)}]


def saw_vs_coset_count_tasks(
    *, coset_counts: Sequence[int], rows: int, num_writes: int, seed: int
) -> List[Task]:
    """The Fig. 8 sweep as campaign tasks, one per coset count × series."""
    base = _random_base(rows, num_writes, seed)
    return [
        Task(kind="fig8-saw-cell", params=dict(base, cosets=cosets, series=series))
        for cosets in checked_coset_counts(coset_counts, minimum=2)
        for series in ("unencoded", "vcc")
    ]


def _reduction_table(
    results: Sequence[Dict[str, Any]], axis: str, vcc_label: str, title: str, notes: str
) -> ResultTable:
    """Pair each axis value's unencoded and VCC cells (in task order) into rows."""
    table = ResultTable(
        title=title, columns=[axis, "technique", "saw_cells", "reduction_percent"], notes=notes
    )
    for unencoded, vcc in zip(results[::2], results[1::2]):
        before, after = unencoded["saw_cells"], vcc["saw_cells"]
        reduction = 100.0 * (before - after) / before if before else 0.0
        table.append(
            **{axis: unencoded[axis]},
            technique="Unencoded",
            saw_cells=before,
            reduction_percent=0.0,
        )
        table.append(
            **{axis: vcc[axis]}, technique=vcc_label, saw_cells=after, reduction_percent=reduction
        )
    return table


def saw_vs_coset_count_table(results: Sequence[Dict[str, Any]], **_: Any) -> ResultTable:
    """Fig. 8: SAW cell count of VCC vs. unencoded across coset cardinalities."""
    return _reduction_table(
        results,
        "cosets",
        "VCC",
        title="Fig. 8 — SAW cells vs. coset cardinality (fixed 1e-2 fault snapshot)",
        notes="reduction is relative to the unencoded writeback at the same coset count",
    )


@register_task(
    "fig10-saw-cell",
    description="SAW cell count of one series on one benchmark trace (Fig. 10 cell)",
)
def _fig10_saw_cell(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One (benchmark × series) cell of the Fig. 10 sweep.

    ``series`` is ``"unencoded"`` or ``"vcc"``; the trace and the fault
    snapshot derive from the benchmark only, so both series see the same.
    """
    benchmark = params["benchmark"]
    series = params["series"]
    trace = cached_trace(
        benchmark,
        num_writebacks=params["writebacks"],
        memory_lines=params["rows"],
        line_bits=params["line_bits"],
        word_bits=params["word_bits"],
        seed=derive_seed(params["seed"], f"fig10-trace-{benchmark}"),
    )
    fault_map = _snapshot(params, f"fig10-faults-{benchmark}")
    spec = _UNENCODED_SERIES if series == "unencoded" else _vcc_series(params["num_cosets"])
    stats = _run_spec(spec, params, fault_map, f"fig10-{series}-{benchmark}", trace=trace)
    return [{"benchmark": benchmark, "series": series, "saw_cells": int(stats.saw_cells)}]


def benchmark_saw_tasks(
    *,
    benchmarks: Sequence[str],
    num_cosets: int,
    writebacks_per_benchmark: int,
    rows: int,
    seed: int,
) -> List[Task]:
    """The Fig. 10 sweep as campaign tasks, one per benchmark × series."""
    base = dict(
        FIGURE_GEOMETRY,
        num_cosets=num_cosets,
        writebacks=writebacks_per_benchmark,
        rows=rows,
        fault_rate=SNAPSHOT_FAULT_RATE,
        seed=seed,
    )
    return [
        Task(kind="fig10-saw-cell", params=dict(base, benchmark=benchmark, series=series))
        for benchmark in benchmarks
        for series in ("unencoded", "vcc")
    ]


def benchmark_saw_table(
    results: Sequence[Dict[str, Any]], *, num_cosets: int, **_: Any
) -> ResultTable:
    """Fig. 10: per-benchmark SAW cells, unencoded vs. VCC(64, N, N/16)."""
    word_bits = FIGURE_GEOMETRY["word_bits"]
    return _reduction_table(
        results,
        "benchmark",
        f"VCC({word_bits},{num_cosets},{max(1, num_cosets // 16)})",
        title="Fig. 10 — per-benchmark SAW cells (fixed 1e-2 fault snapshot)",
        notes=f"VCC uses {num_cosets} virtual cosets",
    )
