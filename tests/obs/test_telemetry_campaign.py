"""Integration: telemetry must observe campaigns without perturbing them."""

import json
import os

import pytest

from repro import obs
from repro.campaign import SweepSpec, last_campaign_telemetry, run_campaign


def fig7_spec():
    """A small fig7-sized grid: 2 coset counts x 2 seeds = 4 tasks."""
    return SweepSpec(
        kind="fig7-energy-cell",
        base={
            "rows": 32,
            "word_bits": 64,
            "line_bits": 512,
            "num_writes": 40,
            "technology": "mlc",
            "encoder": "rcc",
            "cost": "energy-then-saw",
            "label": "RCC",
        },
        grid={"cosets": [4, 8]},
        seeds=(3, 4),
    )


def run_traced(tmp_path, name, jobs):
    trace = tmp_path / f"{name}.jsonl"
    obs.enable_tracing(str(trace))
    try:
        result = run_campaign(fig7_spec(), store=None, jobs=jobs)
    finally:
        obs.disable_tracing()
    return result, obs.load_trace(trace)


class TestResultsUnperturbed:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_rows_bit_identical_with_tracing(self, tmp_path, jobs):
        baseline = run_campaign(fig7_spec(), store=None, jobs=1)
        traced, events = run_traced(tmp_path, f"jobs{jobs}", jobs)
        assert traced.rows() == baseline.rows()
        assert events, "tracing was enabled but produced no events"

    def test_rows_bit_identical_without_tracing_across_jobs(self):
        serial = run_campaign(fig7_spec(), store=None, jobs=1)
        parallel = run_campaign(fig7_spec(), store=None, jobs=4)
        assert parallel.rows() == serial.rows()


class TestSpansAcrossWorkers:
    def test_trace_covers_coordinator_and_workers(self, tmp_path):
        _, events = run_traced(tmp_path, "workers", 2)
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        # the coordinator records the run and one span per task
        assert len(by_name["campaign.run"]) == 1
        assert len(by_name["campaign.task"]) == 4
        # hot-path spans from inside the worker processes made it into
        # the same file (O_APPEND keeps concurrent lines whole)
        assert "replay.wave" in by_name
        worker_pids = {e["pid"] for e in by_name["replay.wave"]}
        coordinator_pid = by_name["campaign.run"][0]["pid"]
        assert worker_pids and coordinator_pid not in worker_pids

    def test_task_spans_nest_under_run_span(self, tmp_path):
        _, events = run_traced(tmp_path, "nesting", 2)
        run_event = next(e for e in events if e["name"] == "campaign.run")
        tasks = [e for e in events if e["name"] == "campaign.task"]
        assert all(e["parent"] == run_event["span"] for e in tasks)
        assert all(not e["attrs"]["cached"] for e in tasks)

    def test_worker_metrics_survive_aggregation(self, tmp_path):
        obs.reset_metrics()
        run_traced(tmp_path, "metrics", 2)
        # worker-side increments were merged into this process's registry
        snapshot = obs.metrics_snapshot()
        assert snapshot["replay.waves"]["value"] > 0
        assert snapshot["encode.candidates"]["value"] > 0
        telemetry = last_campaign_telemetry()
        assert telemetry is not None
        assert telemetry.metrics.get("replay.waves", {}).get("value", 0) > 0


class TestPhaseAccounting:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_phases_explain_task_wall_time(self, tmp_path, jobs):
        _, events = run_traced(tmp_path, f"phases{jobs}", jobs)
        executor = obs.build_report(events)["executor"]
        assert executor["tasks"] == 4
        # acceptance floor: the four phases explain >=90% of measured
        # task wall time (they tile it exactly by construction)
        assert executor["coverage_fraction"] >= 0.90
        assert 0.0 <= executor["overhead_fraction"] <= 1.0

    def test_serial_run_is_pure_compute(self, tmp_path):
        _, events = run_traced(tmp_path, "serial", 1)
        executor = obs.build_report(events)["executor"]
        phases = executor["phases_s"]
        assert phases["queue_wait_s"] == 0.0
        assert phases["dispatch_s"] == 0.0
        assert phases["transfer_s"] == 0.0
        assert phases["compute_s"] > 0.0

    def test_last_campaign_telemetry_reports_phases(self, tmp_path):
        run_traced(tmp_path, "summary", 2)
        telemetry = last_campaign_telemetry()
        assert telemetry is not None
        assert telemetry.wall_s > 0.0
        assert telemetry.compute_s > 0.0
