"""Fig. 13 — normalised IPC of DBI/Flipcy, VCC, and RCC (Table II system).

One ``fig13-ipc-cell`` task per benchmark (:func:`sweep_tasks`) runs the
analytic timing model for every technique; :func:`ipc_table` gathers
the rows.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Sequence

from repro.campaign.spec import Task
from repro.campaign.tasks import register_task
from repro.hardware.synthesis import DesignPoint, estimate_design
from repro.perf.config import SystemConfig
from repro.perf.timing import PerformanceModel
from repro.sim.results import ResultTable

__all__ = ["ipc_table", "sweep_tasks", "technique_delays_ns"]


def technique_delays_ns(num_cosets: int = 256) -> Dict[str, float]:
    """Per-technique extra encode latency, from the hardware model.

    DBI and Flipcy evaluate so few candidates that their delay is a few
    hundred picoseconds (the paper treats them together); VCC and RCC use
    the Fig. 6 estimates for ``num_cosets`` candidates.
    """
    vcc = estimate_design(DesignPoint(style="vcc", num_cosets=num_cosets, stored_kernels=False))
    rcc = estimate_design(DesignPoint(style="rcc", num_cosets=num_cosets))
    return {
        "DBI/Flipcy": 0.3,
        "VCC": vcc.delay_ns,
        "RCC": rcc.delay_ns,
    }


@register_task(
    "fig13-ipc-cell",
    description="normalised IPC of every technique on one benchmark (Fig. 13 cell)",
)
def _fig13_ipc_cell(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One benchmark of the Fig. 13 sweep (all techniques, analytic model)."""
    model = PerformanceModel(SystemConfig(**params["system"]))
    delays = technique_delays_ns(params["num_cosets"])
    return [
        {
            "benchmark": result.benchmark,
            "technique": result.technique,
            "encode_delay_ns": result.encode_delay_ns,
            "normalized_ipc": result.normalized_ipc,
        }
        for result in model.sweep(delays, benchmarks=[params["benchmark"]])
    ]


def sweep_tasks(
    *, benchmarks: Sequence[str], num_cosets: int, system: SystemConfig
) -> List[Task]:
    """The Fig. 13 sweep as campaign tasks, one per benchmark."""
    base = {"num_cosets": num_cosets, "system": dataclasses.asdict(system)}
    return [
        Task(kind="fig13-ipc-cell", params={**base, "benchmark": benchmark})
        for benchmark in benchmarks
    ]


def ipc_table(results: Sequence[Dict[str, Any]], **_: Any) -> ResultTable:
    """Fig. 13: normalised IPC per benchmark and technique."""
    table = ResultTable(
        title="Fig. 13 — IPC normalised to unencoded writeback (256 cosets)",
        columns=["benchmark", "technique", "encode_delay_ns", "normalized_ipc"],
        notes="analytic timing model parameterised by Table II (see DESIGN.md)",
    )
    return table.extend(results)
