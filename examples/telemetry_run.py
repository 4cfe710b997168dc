"""Observing a run with ``repro.obs``: counters, spans, and the report.

This walks the telemetry layer end to end:

1. read hot-path **counters** after a simulation — replay waves,
   encoder candidate evaluations, pad chunks — via
   :func:`repro.obs.metrics_snapshot`;
2. enable the **span tracer** and run a small campaign with workers,
   producing a JSONL trace file (the CLI equivalent is
   ``python -m repro.experiments.runner fig7 --trace trace.jsonl``);
3. build the **run report** from the trace — top spans by self-time and
   the executor phase breakdown (queue-wait / dispatch / compute /
   result-transfer) — the same rollup as
   ``python -m repro.obs report trace.jsonl``;
4. show that telemetry only observes: the rows of a traced run are
   bit-identical to an untraced one.

Run with ``python examples/telemetry_run.py``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.campaign import SweepSpec, run_campaign


def sweep() -> SweepSpec:
    # A small fig7-style grid: 2 coset counts x 2 seeds = 4 tasks.
    return SweepSpec(
        kind="fig7-energy-cell",
        base={
            "rows": 32,
            "word_bits": 64,
            "line_bits": 512,
            "num_writes": 60,
            "technology": "mlc",
            "encoder": "rcc",
            "cost": "energy-then-saw",
            "label": "RCC",
        },
        grid={"cosets": [4, 8]},
        seeds=(3, 4),
    )


def main() -> None:
    # --- 1. counters -------------------------------------------------
    # Metrics are always on (they cost <2% on the replay engine, gated
    # by benchmarks/bench_obs_overhead.py) and register themselves like
    # encoders do; a run leaves its footprint in the process registry.
    obs.reset_metrics()
    untraced = run_campaign(sweep(), store=None, jobs=1)
    snapshot = obs.metrics_snapshot()
    print("hot-path counters after an untraced serial run:")
    for name in ("replay.waves", "encode.candidates", "crypto.pad_chunks"):
        payload = snapshot.get(name, {"value": 0})
        print(f"  {name:24s} {payload.get('value', payload)}")

    # --- 2. tracing + 3. the report ---------------------------------
    with tempfile.TemporaryDirectory(prefix="telemetry-example-") as tmp:
        trace = Path(tmp) / "trace.jsonl"
        obs.enable_tracing(str(trace))  # workers inherit via REPRO_TRACE
        try:
            traced = run_campaign(sweep(), store=None, jobs=2)
        finally:
            obs.disable_tracing()

        events = obs.load_trace(trace)
        report = obs.build_report(events)
        print(f"\ntrace: {len(events)} events from {report['processes']} process(es)")
        obs.render_text(report, sys.stdout, top=5)

    # --- 4. telemetry only observes ----------------------------------
    assert traced.rows() == untraced.rows()
    print("traced rows are bit-identical to the untraced run")


if __name__ == "__main__":
    main()
