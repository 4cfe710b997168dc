"""Experiment simulators.

Each module holds the campaign task kinds of one family of figures, the
task builders that expand a figure's parameters into its grid, and the
tables that aggregate the grid's rows; :mod:`repro.experiments.registry`
pairs them with each figure's defaults.

* :mod:`repro.sim.energy_sim` — dynamic write energy (Figs. 7 and 9);
* :mod:`repro.sim.saw_sim` — stuck-at-wrong mitigation against a fixed
  fault-map snapshot (Figs. 2, 8, 10);
* :mod:`repro.sim.lifetime_sim` — wear-out lifetime with per-cell
  endurance (Figs. 11 and 12);
* :mod:`repro.sim.results` — the result containers and table formatting
  shared by the experiment table and the benchmark harness.
"""

from repro.sim.results import ResultTable
from repro.sim.lifetime_sim import LifetimeStudyConfig, simulate_lifetime
from repro.sim.repetition import RepeatedMetric, aggregate_columns, repeat_metric

__all__ = [
    "LifetimeStudyConfig",
    "RepeatedMetric",
    "ResultTable",
    "aggregate_columns",
    "repeat_metric",
    "simulate_lifetime",
]
