"""Fig. 1 — analytical reduction in changed bits: RCC vs. BCC on random data.

The closed forms (Eq. (1)/(2) of the paper, :mod:`repro.core.analytical`)
are cheap, but the figure is still a sweep over coset counts — so it runs
through the campaign engine like every other figure grid: one
``fig1-analysis-cell`` task per count (:func:`coding_analysis_tasks`),
gathered by :func:`coding_analysis_table`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.campaign.spec import Task
from repro.campaign.tasks import register_task
from repro.core.analytical import reduction_percent_bcc, reduction_percent_rcc
from repro.errors import ConfigurationError
from repro.sim.harness import checked_coset_counts
from repro.sim.results import ResultTable

__all__ = ["coding_analysis_table", "coding_analysis_tasks"]


@register_task(
    "fig1-analysis-cell",
    description="closed-form BCC/RCC bit-change reduction at one coset count (Fig. 1 cell)",
)
def _fig1_analysis_cell(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One coset-count cell of the Fig. 1 series (pure closed form)."""
    n = params["n"]
    cosets = params["cosets"]
    return [
        {
            "cosets": cosets,
            "bcc_reduction_percent": reduction_percent_bcc(n, cosets),
            "rcc_reduction_percent": reduction_percent_rcc(n, cosets),
        }
    ]


def coding_analysis_tasks(*, n: int, coset_counts: Sequence[int]) -> List[Task]:
    """The Fig. 1 series as campaign tasks, one per coset count."""
    if n <= 0:
        raise ConfigurationError(f"block size n must be positive, got {n}")
    return [
        Task(kind="fig1-analysis-cell", params={"n": int(n), "cosets": count})
        for count in checked_coset_counts(coset_counts, minimum=1)
    ]


def coding_analysis_table(
    results: Sequence[Dict[str, Any]], *, n: int, **_: Any
) -> ResultTable:
    """Fig. 1: % reduction in changed bits vs. coset count.

    BCC wins for small candidate counts; RCC overtakes at N = 16 and wins
    clearly at N = 256, which is the observation motivating random cosets
    for encrypted data.
    """
    table = ResultTable(
        title="Fig. 1 — reduction in changed bits (random data, closed form)",
        columns=["cosets", "bcc_reduction_percent", "rcc_reduction_percent"],
        notes=f"block size n = {n} bits; Eq. (1)/(2) of the paper",
    )
    return table.extend(results)
