"""``repro.obs`` — run telemetry: metrics, span tracing, and reports.

The observability layer of the reproduction.  Three pieces:

* **Metrics** (:mod:`repro.obs.metrics`): a process-local registry of
  named counters / gauges / histograms.  Instrumented modules register
  handles at import time (``_OBS_WAVES = obs.counter(...)``) and bump
  them on the hot path; campaign workers snapshot their registry per
  task and the engine merges the payloads, so a run summary can report
  wave counts and cache hits no matter which process produced them.
* **Tracing** (:mod:`repro.obs.tracing`): ``with obs.span("replay.wave",
  lines=n):`` appends structured JSONL events with monotonic timestamps
  and parent/child nesting.  Off by default — the disabled path is a
  shared no-op object, enforced <2% on ``bench_trace_replay`` by
  ``benchmarks/bench_obs_overhead.py``.
* **Reports** (:mod:`repro.obs.report`): ``python -m repro.obs report
  trace.jsonl`` rolls a trace up into top-spans-by-self-time and the
  executor phase breakdown (queue-wait / dispatch / compute /
  result-transfer) that the campaign-scaling work keys off.

Telemetry never feeds back into simulation results: every clock read
goes through :func:`repro.obs.clock.monotonic` (the OBS001 analysis
rule flags any other stopwatch clock) and campaign rows are
bit-identical with tracing on or off.
"""

from repro.obs.clock import monotonic
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    REGISTRY,
    counter,
    gauge,
    histogram,
    merge_metrics,
    metrics_snapshot,
    reset_metrics,
    timed,
)
from repro.obs.report import build_report, load_trace, render_text
from repro.obs.tracing import (
    Span,
    disable_tracing,
    emit_span,
    enable_tracing,
    span,
    trace_path,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "REGISTRY",
    "Span",
    "build_report",
    "counter",
    "disable_tracing",
    "emit_span",
    "enable_tracing",
    "gauge",
    "histogram",
    "load_trace",
    "merge_metrics",
    "metrics_snapshot",
    "monotonic",
    "render_text",
    "reset_metrics",
    "span",
    "timed",
    "trace_path",
    "tracing_enabled",
]
