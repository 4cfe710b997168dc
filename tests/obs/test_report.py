"""Unit tests for the trace report rollup and its CLI."""

import io
import json

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.cli import main as obs_main


def event(name, start, end, span="1:1", parent=None, pid=1, attrs=None, error=None):
    payload = {
        "name": name,
        "pid": pid,
        "span": span,
        "parent": parent,
        "start_s": start,
        "end_s": end,
    }
    if attrs:
        payload["attrs"] = attrs
    if error:
        payload["error"] = error
    return payload


def task_event(span, start, end, **phases):
    attrs = {"task": span, "cached": False}
    attrs.update(phases)
    return event("campaign.task", start, end, span=span, attrs=attrs)


class TestLoadTrace:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = [event("a", 0.0, 1.0), event("b", 1.0, 2.0, span="1:2")]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert obs.load_trace(str(path)) == events

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(event("a", 0.0, 1.0)) + "\n\n")
        assert len(obs.load_trace(str(path))) == 1

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError, match="not a JSON trace event"):
            obs.load_trace(str(path))

    def test_non_event_object_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"no_name": 1}\n')
        with pytest.raises(ConfigurationError, match="must be an object with a name"):
            obs.load_trace(str(path))


class TestBuildReport:
    def test_self_time_subtracts_children(self):
        events = [
            event("child", 1.0, 3.0, span="1:2", parent="1:1"),
            event("parent", 0.0, 4.0, span="1:1"),
        ]
        report = obs.build_report(events)
        spans = {entry["name"]: entry for entry in report["spans"]}
        assert spans["parent"]["total_s"] == pytest.approx(4.0)
        assert spans["parent"]["self_s"] == pytest.approx(2.0)
        assert spans["child"]["self_s"] == pytest.approx(2.0)
        # ranked by self-time: tie here, then by name
        assert [e["name"] for e in report["spans"]] == ["child", "parent"]

    def test_wall_and_processes(self):
        events = [
            event("a", 0.0, 1.0, pid=1),
            event("b", 2.0, 5.0, span="2:1", pid=2),
        ]
        report = obs.build_report(events)
        assert report["processes"] == 2
        assert report["wall_s"] == pytest.approx(5.0)

    def test_executor_phases_tile_task_wall(self):
        events = [
            task_event(
                "1:1", 0.0, 1.0,
                queue_wait_s=0.3, dispatch_s=0.1, compute_s=0.5, transfer_s=0.1,
            ),
            task_event(
                "1:2", 1.0, 2.0,
                queue_wait_s=0.1, dispatch_s=0.1, compute_s=0.7, transfer_s=0.1,
            ),
        ]
        executor = obs.build_report(events)["executor"]
        assert executor["tasks"] == 2
        assert executor["coverage_fraction"] == pytest.approx(1.0)
        # overhead = everything but compute = (0.5 + 0.3) / 2.0
        assert executor["overhead_fraction"] == pytest.approx(0.4)

    def test_cached_tasks_counted_but_not_phased(self):
        events = [
            task_event(
                "1:1", 0.0, 1.0,
                queue_wait_s=0.0, dispatch_s=0.0, compute_s=1.0, transfer_s=0.0,
            ),
            event("campaign.task", 1.0, 1.1, span="1:2", attrs={"cached": True}),
        ]
        executor = obs.build_report(events)["executor"]
        assert executor["tasks"] == 1
        assert executor["cached"] == 1
        assert executor["wall_s"] == pytest.approx(1.0)

    def test_no_tasks_no_executor_section(self):
        report = obs.build_report([event("a", 0.0, 1.0)])
        assert "executor" not in report

    def test_clean_trace_has_no_failures_section(self):
        report = obs.build_report([event("campaign.task", 0.0, 1.0, attrs={"cached": True})])
        assert "failures" not in report

    def test_quarantine_alone_reports_no_failed_task(self):
        events = [event("store.quarantine", 0.5, 0.5, span="1:1", attrs={"object": "ab"})]
        assert obs.build_report(events)["failures"] == {"failed": 0, "quarantined": 1}


class TestRenderText:
    def test_contains_ci_asserted_lines(self):
        events = [
            task_event(
                "1:1", 0.0, 1.0,
                queue_wait_s=0.2, dispatch_s=0.1, compute_s=0.6, transfer_s=0.1,
            ),
        ]
        stream = io.StringIO()
        obs.render_text(obs.build_report(events), stream)
        text = stream.getvalue()
        assert "executor overhead: 40.0% of task wall time spent outside compute" in text
        assert "phase coverage: 100.0% of measured task wall time" in text
        assert "top spans by self-time" in text
        assert "failures:" not in text

    def test_failures_line_counts_failed_tasks_and_quarantines(self):
        events = [
            event("campaign.failed", 1.0, 1.0, span="1:1", attrs={"kind": "error"}),
            event("campaign.failed", 1.5, 1.5, span="1:2", attrs={"kind": "crash"}),
            event("store.quarantine", 0.5, 0.5, span="1:3", attrs={"object": "ab"}),
        ]
        report = obs.build_report(events)
        assert report["failures"] == {"failed": 2, "quarantined": 1}
        stream = io.StringIO()
        obs.render_text(report, stream)
        assert "failures: 2 tasks failed, 1 corrupt store objects quarantined" in stream.getvalue()


class TestCli:
    def _trace_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = [
            task_event(
                "1:1", 0.0, 1.0,
                queue_wait_s=0.2, dispatch_s=0.1, compute_s=0.6, transfer_s=0.1,
            ),
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        return path

    def test_report_text(self, tmp_path, capsys):
        assert obs_main(["report", str(self._trace_file(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "executor overhead:" in out
        assert "phase coverage:" in out

    def test_report_json(self, tmp_path, capsys):
        assert obs_main(["report", str(self._trace_file(tmp_path)), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executor"]["tasks"] == 1

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_glossary_lists_hot_path_counters(self):
        """Read in a fresh interpreter: this process's registry also holds
        metrics that only tests created, which would mask a name no
        module registers any more."""
        import os
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro.obs", "metrics"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        registered = {line.split()[0] for line in completed.stdout.splitlines() if line.strip()}
        for name in (
            "replay.waves",
            "replay.wave_lines",
            "replay.conflict_cuts",
            "replay.squashed_writes",
            "encode.candidates",
            "crypto.pad_chunks",
            "crypto.pads",
            "crypto.derived_pads",
            "crypto.rolled_back_counters",
            "store.get_s",
        ):
            assert name in registered, name
        assert "encode.kernel_gemms" not in registered
