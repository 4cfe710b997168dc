"""The paper's figures and tables as one experiment table.

:mod:`repro.experiments.registry` holds one entry per figure/table
("fig1", "fig7", "table1", ...): its default parameters, the campaign
tasks its grid expands into, and the aggregator that turns their rows
into a :class:`~repro.sim.results.ResultTable` (scaled down where the
paper's workload sizes are impractical in pure Python; see DESIGN.md).
The closed-form entries (fig3, fig6, table1, table2) run no tasks.
:mod:`repro.experiments.runner` is the command-line front end::

    python -m repro.experiments.runner fig7
"""

from repro.experiments.registry import (
    Experiment,
    available_experiments,
    get_experiment,
    run_experiment,
    run_experiments,
)

__all__ = [
    "Experiment",
    "available_experiments",
    "get_experiment",
    "run_experiment",
    "run_experiments",
]
