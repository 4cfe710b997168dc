"""The experiment table: every figure and table of the paper as one entry.

Each :class:`Experiment` is three things:

* ``defaults`` — every parameter the figure takes, with its default;
* ``tasks(**params)`` — the figure's grid as campaign tasks (absent for
  the closed-form entries, which simulate nothing);
* ``table(results, **params)`` — the figure's :class:`ResultTable`, built
  from ``results``: the tasks' rows, in task order.

:func:`run_experiments` runs any list of entries as one campaign, so
figures that share cells (Figs. 11 and 12 share lifetime cells) simulate
each distinct cell once; :func:`run_experiment` is its one-entry form.
The runner (whose ``--set key=value`` overrides are parsed by the type of
the entry's default) and the benchmarks read this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import repro.experiments.fig01_coding_analysis as fig01
import repro.experiments.fig03_worked_example as fig03
import repro.experiments.fig06_hardware as fig06
import repro.experiments.fig13_ipc as fig13
import repro.experiments.table1_energy_model as table1
import repro.experiments.table2_system as table2
import repro.sim.energy_sim as energy
import repro.sim.lifetime_sim as lifetime
import repro.sim.saw_sim as saw
from repro.campaign.engine import CampaignFailed, ProgressCallback, TaskFailure, run_campaign
from repro.campaign.spec import Task
from repro.campaign.store import ResultStore
from repro.errors import ConfigurationError, SimulationError
from repro.pcm.energy import DEFAULT_MLC_ENERGY
from repro.perf.config import TABLE_II_SYSTEM
from repro.sim.results import ResultTable
from repro.traces.spec import list_benchmarks

__all__ = [
    "Experiment",
    "available_experiments",
    "get_experiment",
    "run_experiment",
    "run_experiments",
]


@dataclass(frozen=True)
class Experiment:
    """One figure or table: its parameters, its task grid, its aggregator."""

    defaults: Mapping[str, Any]
    table: Callable[..., ResultTable]
    tasks: Optional[Callable[..., List[Task]]] = None


def _closed_form(run: Callable[..., ResultTable]) -> Callable[..., ResultTable]:
    """The table of an entry with no tasks: ``run(**params)``, no results to read."""

    def table(results: Sequence[Dict[str, Any]], **params: Any) -> ResultTable:
        return run(**params)

    return table


#: The coset-count axis of the coded-memory figures.
_CODED_COSETS = (32, 64, 128, 256)

#: The benchmark traces of Figs. 9 and 10 (a subset keeps pure-Python
#: runtimes reasonable; pass ``benchmarks=list_benchmarks()`` for the suite).
_TRACE_BENCHMARKS = ("lbm", "mcf", "bwaves", "fotonik3d", "xalancbmk", "xz")

_EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(
        defaults={"n": 64, "coset_counts": (2, 4, 16, 256)},
        tasks=fig01.coding_analysis_tasks,
        table=fig01.coding_analysis_table,
    ),
    "fig2": Experiment(
        defaults={
            "coset_counts": (1, 2, 4, 8, 16, 32, 64, 128),
            "rows": 96,
            "num_writes": 200,
            "seed": 7,
            "fault_model": None,
        },
        tasks=saw.fault_masking_tasks,
        table=saw.fault_masking_table,
    ),
    "fig3": Experiment(defaults={}, table=_closed_form(fig03.run)),
    "fig6": Experiment(defaults={"coset_counts": _CODED_COSETS}, table=_closed_form(fig06.run)),
    "fig7": Experiment(
        defaults={"coset_counts": _CODED_COSETS, "rows": 96, "num_writes": 250, "seed": 2022},
        tasks=energy.random_energy_tasks,
        table=energy.random_energy_table,
    ),
    "fig8": Experiment(
        defaults={"coset_counts": _CODED_COSETS, "rows": 96, "num_writes": 200, "seed": 7},
        tasks=saw.saw_vs_coset_count_tasks,
        table=saw.saw_vs_coset_count_table,
    ),
    "fig9": Experiment(
        defaults={
            "benchmarks": _TRACE_BENCHMARKS,
            "num_cosets": 256,
            "writebacks_per_benchmark": 200,
            "rows": 96,
            "seed": 2022,
        },
        tasks=energy.benchmark_energy_tasks,
        table=energy.benchmark_energy_table,
    ),
    "fig10": Experiment(
        defaults={
            "benchmarks": _TRACE_BENCHMARKS,
            "num_cosets": 256,
            "writebacks_per_benchmark": 150,
            "rows": 96,
            "seed": 7,
        },
        tasks=saw.benchmark_saw_tasks,
        table=saw.benchmark_saw_table,
    ),
    "fig11": Experiment(
        defaults={
            "benchmarks": lifetime.DEFAULT_BENCHMARKS,
            "techniques": lifetime.DEFAULT_LIFETIME_TECHNIQUES,
            "num_cosets": 256,
            "config": lifetime.LifetimeStudyConfig(),
            "repetitions": 1,
            "fault_model": None,
        },
        tasks=lifetime.lifetime_study_tasks,
        table=lifetime.lifetime_table,
    ),
    "fig12": Experiment(
        defaults={
            "coset_counts": _CODED_COSETS,
            "benchmarks": ("lbm", "mcf"),
            "techniques": lifetime.DEFAULT_LIFETIME_TECHNIQUES,
            "config": lifetime.LifetimeStudyConfig(),
            "repetitions": 1,
            "fault_model": None,
        },
        tasks=lifetime.mean_lifetime_tasks,
        table=lifetime.mean_lifetime_table,
    ),
    "fig13": Experiment(
        defaults={
            "benchmarks": tuple(list_benchmarks()),
            "num_cosets": 256,
            "system": TABLE_II_SYSTEM,
        },
        tasks=fig13.sweep_tasks,
        table=fig13.ipc_table,
    ),
    "table1": Experiment(defaults={"model": DEFAULT_MLC_ENERGY}, table=_closed_form(table1.run)),
    "table2": Experiment(defaults={"system": TABLE_II_SYSTEM}, table=_closed_form(table2.run)),
}


#: One requested entry: its name, the entry, its parameters and its tasks.
_Plan = Tuple[str, Experiment, Dict[str, Any], List[Task]]


def available_experiments() -> List[str]:
    """Identifiers accepted by :func:`run_experiment`."""
    return sorted(_EXPERIMENTS)


def get_experiment(identifier: str) -> Experiment:
    """Return the table entry for an experiment identifier (case-insensitive)."""
    key = identifier.lower()
    if key not in _EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {identifier!r}; available: {', '.join(available_experiments())}"
        )
    return _EXPERIMENTS[key]


def _params(name: str, overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """The entry's defaults updated by ``overrides``, each checked against them."""
    defaults = get_experiment(name).defaults
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        takes = ", ".join(defaults) or "no parameters"
        raise ConfigurationError(
            f"experiment {name!r} does not take {', '.join(unknown)} (it takes {takes})"
        )
    return {**defaults, **overrides}


def run_experiments(
    requests: Sequence[Tuple[str, Mapping[str, Any]]],
    jobs: int = 1,
    store_dir: Union[ResultStore, str, Path, None] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[ResultTable]:
    """Run ``(name, overrides)`` entries as one campaign; one table per entry.

    Every entry's tasks go into a single campaign, so a cell two figures
    share runs once.  ``jobs`` worker processes give bit-identical rows
    at any count; ``store_dir`` serves and keeps completed tasks, so an
    interrupted run resumes.  When tasks fail (the campaign raises
    :class:`~repro.campaign.engine.CampaignFailed`), one
    :class:`SimulationError` names each figure with failed tasks; the
    completed tasks are already in the store.
    """
    plans: List[_Plan] = []
    for name, overrides in requests:
        entry = get_experiment(name)
        params = _params(name, overrides)
        plans.append((name.lower(), entry, params, entry.tasks(**params) if entry.tasks else []))
    tasks = [task for *_, grid in plans for task in grid]
    rows_by_hash: Dict[str, List[Dict[str, Any]]] = {}
    if tasks:
        try:
            result = run_campaign(tasks, store=store_dir, jobs=jobs, progress=progress)
        except CampaignFailed as failed:
            stored = store_dir is not None
            raise SimulationError(_failure_message(plans, failed.failures, stored)) from None
        rows_by_hash = result.rows_by_hash
    return [
        entry.table([row for task in grid for row in rows_by_hash[task.task_hash]], **params)
        for _, entry, params, grid in plans
    ]


def _failure_message(
    plans: Sequence[_Plan], failures: Sequence[TaskFailure], stored: bool
) -> str:
    """Name each figure that lost tasks, how many of its distinct tasks it
    lost, and its first failure."""
    failed = {failure.task.task_hash: failure for failure in failures}
    counts = []
    for name, _, _, grid in plans:
        hashes = {task.task_hash for task in grid}
        lost = [failed[task.task_hash] for task in grid if task.task_hash in failed]
        if lost:
            counts.append(
                f"{name}: {len(hashes & failed.keys())} of {len(hashes)} tasks failed: "
                f"{lost[0].describe()}"
            )
    message = "; ".join(counts)
    if stored:
        message += " (the completed tasks are in the store: a rerun executes only the failed ones)"
    return message


def run_experiment(
    identifier: str,
    jobs: int = 1,
    store_dir: Union[ResultStore, str, Path, None] = None,
    progress: Optional[ProgressCallback] = None,
    **overrides: Any,
) -> ResultTable:
    """Run one experiment; ``overrides`` replace entries of its ``defaults``."""
    (table,) = run_experiments([(identifier, overrides)], jobs, store_dir, progress)
    return table
