"""Dynamic write-energy figures (Figs. 7 and 9): task kinds, grids, tables.

* Fig. 7 — the preliminary study of Section V-B: uniformly random data
  is written repeatedly to a small MLC memory and the total write energy
  of RCC, VCC with generated kernels, VCC with stored kernels, and the
  unencoded baseline is compared across coset counts.
* Fig. 9 — the full evaluation of Section VI-B: encrypted writeback
  traces of the SPEC-like benchmarks are written to a memory with a
  fixed 1e-2 stuck-at fault snapshot, and the write energy of VCC / RCC
  under both cost-function orderings ("Opt. Energy" = energy first, SAW
  second; "Opt. SAW" = the reverse) is compared with the unencoded
  baseline.  Energy accounting includes the auxiliary bits, as in the
  paper.

Each figure is a task kind, a task builder expanding the figure's
parameters into its grid, and a table aggregating the grid's rows;
:mod:`repro.experiments.registry` pairs them with the figure's defaults
(scaled down from the paper's 2 GB memory and 100,000 writes).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.campaign.spec import Task
from repro.campaign.tasks import register_task
from repro.pcm.cell import CellTechnology
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
from repro.utils.rng import derive_seed

__all__ = [
    "benchmark_energy_table",
    "benchmark_energy_tasks",
    "random_energy_table",
    "random_energy_tasks",
]

#: The Fig. 7 technique line-up, in table order (the unencoded baseline
#: leads so aggregation can normalise the coset techniques against it).
_FIG7_TECHNIQUES = (
    ("unencoded", "Unencoded"),
    ("rcc", "RCC"),
    ("vcc", "VCC-Generated"),
    ("vcc-stored", "VCC-Stored"),
)


@register_task(
    "fig7-energy-cell",
    description="random-data write energy of one technique at one coset count (Fig. 7 cell)",
)
def _fig7_energy_cell(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One (coset count × technique) cell of the Fig. 7 sweep.

    Seed derivation labels are ``fig7-{label}-{cosets}`` for the stack and
    ``fig7-writes-{cosets}`` for the random lines.  The random lines run
    through the batched
    :meth:`~repro.memctrl.controller.MemoryController.write_random_lines`
    driver (accounting bit-identical to the scalar ``write_line`` loop).
    """
    cosets = params["cosets"]
    seed = params["seed"]
    spec = TechniqueSpec(
        encoder=params["encoder"], cost=params["cost"], num_cosets=cosets, label=params["label"]
    )
    controller = build_controller(
        spec,
        rows=params["rows"],
        technology=CellTechnology(params["technology"]),
        word_bits=params["word_bits"],
        line_bits=params["line_bits"],
        seed=derive_seed(seed, f"fig7-{spec.label}-{cosets}"),
        encrypt=True,
    )
    stats = drive_random_lines(
        controller,
        params["num_writes"],
        seed=derive_seed(seed, f"fig7-writes-{cosets}"),
    )
    return [
        {
            "cosets": cosets,
            "technique": spec.label,
            "encoder": spec.encoder,
            "total_energy_pj": float(stats.total_energy_pj),
        }
    ]


def random_energy_tasks(
    *, coset_counts: Sequence[int], rows: int, num_writes: int, seed: int
) -> List[Task]:
    """The Fig. 7 sweep as campaign tasks, one per coset count × technique."""
    base = dict(FIGURE_GEOMETRY, rows=rows, num_writes=num_writes, seed=seed)
    return [
        Task(
            kind="fig7-energy-cell",
            params=dict(base, cosets=cosets, encoder=encoder, cost="energy", label=label),
        )
        for cosets in checked_coset_counts(coset_counts, minimum=2)
        for encoder, label in _FIG7_TECHNIQUES
    ]


def random_energy_table(
    results: Sequence[Dict[str, Any]], *, coset_counts: Sequence[int], **_: Any
) -> ResultTable:
    """Fig. 7: write energy of RCC / VCC-generated / VCC-stored / unencoded.

    One row per (coset count, technique) holding the total write energy
    (data + auxiliary bits) and the saving relative to the unencoded
    baseline at the same count.
    """
    energy_by_cell: Dict[Any, float] = {
        (row["cosets"], row["technique"]): row["total_energy_pj"] for row in results
    }
    table = ResultTable(
        title="Fig. 7 — write energy vs. coset count (random data, MLC PCM)",
        columns=["cosets", "technique", "total_energy_pj", "saving_percent"],
        notes="scaled-down memory/write count; savings are relative to unencoded",
    )
    for cosets in checked_coset_counts(coset_counts, minimum=2):
        baseline_energy = energy_by_cell[(cosets, "Unencoded")]
        for _, label in _FIG7_TECHNIQUES:
            energy = energy_by_cell[(cosets, label)]
            saving = (
                0.0
                if label == "Unencoded" or baseline_energy == 0.0  # repro: allow[NUM003] reason=exact-zero guard against division by zero, not a cost comparison
                else 100.0 * (baseline_energy - energy) / baseline_energy
            )
            table.append(
                cosets=cosets,
                technique=label,
                total_energy_pj=energy,
                saving_percent=saving,
            )
    return table


def _fig9_techniques(num_cosets: int) -> List[TechniqueSpec]:
    """The Fig. 9 technique line-up, in table order."""
    return [
        TechniqueSpec(encoder="unencoded", cost="energy", label="Unencoded"),
        TechniqueSpec(encoder="vcc", cost="energy-then-saw", num_cosets=num_cosets, label="VCC Opt. Energy"),
        TechniqueSpec(encoder="vcc", cost="saw-then-energy", num_cosets=num_cosets, label="VCC Opt. SAW"),
        TechniqueSpec(encoder="rcc", cost="energy-then-saw", num_cosets=num_cosets, label="RCC Opt. Energy"),
        TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=num_cosets, label="RCC Opt. SAW"),
    ]


@register_task(
    "fig9-energy-cell",
    description="total write energy of one technique on one benchmark trace (Fig. 9 cell)",
)
def _fig9_energy_cell(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One (benchmark × technique) cell of the Fig. 9 sweep.

    All randomness (trace, fault snapshot, encryption pads, kernels)
    derives from ``params['seed']``, so the cell computes identical
    energies whether it runs in-process, on a worker, or from a previous
    campaign's cache.
    """
    benchmark = params["benchmark"]
    seed = params["seed"]
    technology = CellTechnology(params["technology"])
    spec = TechniqueSpec(
        encoder=params["encoder"],
        cost=params["cost"],
        num_cosets=params["num_cosets"],
        label=params["label"],
    )
    trace = cached_trace(
        benchmark,
        num_writebacks=params["writebacks"],
        memory_lines=params["rows"],
        line_bits=params["line_bits"],
        word_bits=params["word_bits"],
        seed=derive_seed(seed, f"fig9-trace-{benchmark}"),
    )
    fault_map = cached_fault_map(
        rows=params["rows"],
        cells_per_row=params["line_bits"] // technology.bits_per_cell,
        technology=technology,
        fault_rate=params["fault_rate"],
        seed=derive_seed(seed, f"fig9-faults-{benchmark}"),
    )
    controller = build_controller(
        spec,
        rows=params["rows"],
        technology=technology,
        word_bits=params["word_bits"],
        line_bits=params["line_bits"],
        fault_map=fault_map,
        seed=derive_seed(seed, f"fig9-{benchmark}-{spec.label}"),
        encrypt=True,
    )
    replay = drive_trace(controller, trace)
    energy = replay.total_energy_pj()
    return [
        {
            "benchmark": benchmark,
            "technique": spec.label,
            "encoder": spec.encoder,
            "total_energy_pj": energy,
        }
    ]


def benchmark_energy_tasks(
    *,
    benchmarks: Sequence[str],
    num_cosets: int,
    writebacks_per_benchmark: int,
    rows: int,
    seed: int,
) -> List[Task]:
    """The Fig. 9 sweep as campaign tasks, one per benchmark × technique."""
    base = dict(
        FIGURE_GEOMETRY,
        writebacks=writebacks_per_benchmark,
        rows=rows,
        fault_rate=SNAPSHOT_FAULT_RATE,
        seed=seed,
    )
    return [
        Task(
            kind="fig9-energy-cell",
            params=dict(
                base,
                benchmark=benchmark,
                encoder=spec.encoder,
                cost=spec.cost,
                num_cosets=spec.num_cosets,
                label=spec.label,
            ),
        )
        for benchmark in benchmarks
        for spec in _fig9_techniques(num_cosets)
    ]


def benchmark_energy_table(
    results: Sequence[Dict[str, Any]], *, num_cosets: int, **_: Any
) -> ResultTable:
    """Fig. 9: per-benchmark write energy for both cost-function orderings.

    For each benchmark the table holds the unencoded baseline, VCC and RCC
    optimising energy first ("Opt. Energy") and SAW first ("Opt. SAW"),
    against a memory snapshot with a fixed stuck-at fault rate.
    """
    table = ResultTable(
        title="Fig. 9 — per-benchmark write energy (fixed 1e-2 fault snapshot, MLC PCM)",
        columns=["benchmark", "technique", "total_energy_pj", "saving_percent"],
        notes="VCC/RCC use {} cosets; energy includes auxiliary bits".format(num_cosets),
    )
    baseline_energy: Optional[float] = None
    current_benchmark: Optional[str] = None
    for row in results:
        if row["benchmark"] != current_benchmark:
            current_benchmark = row["benchmark"]
            baseline_energy = None
        energy = row["total_energy_pj"]
        if row["encoder"] == "unencoded":
            baseline_energy = energy
        saving = (
            0.0
            if baseline_energy in (None, 0.0)
            else 100.0 * (baseline_energy - energy) / baseline_energy
        )
        table.append(
            benchmark=row["benchmark"],
            technique=row["technique"],
            total_energy_pj=energy,
            saving_percent=saving,
        )
    return table
