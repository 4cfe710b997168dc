"""Roll a JSONL span trace up into a run report.

``python -m repro.obs report <trace.jsonl>`` renders the text form;
``--json`` emits the same rollup as a machine-readable object.  The
report answers the two questions the campaign-scaling work needs:

* **Where does time go?** — every span name is aggregated into count /
  total / self-time (total minus the time covered by child spans), and
  the top spans are ranked by self-time.
* **What does the executor cost?** — ``campaign.task`` spans carry the
  per-phase breakdown stamped by the executors (queue-wait, dispatch,
  compute, result-transfer); the report sums them into an *executor
  overhead* fraction (everything except compute) and a *phase coverage*
  fraction (how much of each task's measured wall time the four phases
  explain — the acceptance floor is 90%).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, TextIO

from repro.errors import ConfigurationError

__all__ = ["build_report", "load_trace", "render_text"]

#: Executor phases stamped on ``campaign.task`` spans, in pipeline order.
TASK_PHASES = ("queue_wait_s", "dispatch_s", "compute_s", "transfer_s")

#: Zero-duration failure markers the campaign runtime emits: tasks that
#: produced no rows, and corrupt store objects quarantined aside.
FAILURE_EVENTS = ("campaign.failed", "store.quarantine")


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file into a list of span events."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}:{lineno}: not a JSON trace event: {error}"
                ) from error
            if not isinstance(event, dict) or "name" not in event:
                raise ConfigurationError(
                    f"{path}:{lineno}: trace event must be an object with a name"
                )
            events.append(event)
    return events


def _duration(event: Dict[str, Any]) -> float:
    return max(0.0, float(event["end_s"]) - float(event["start_s"]))


def _aggregate_spans(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-name rollup with self-time (duration minus child durations)."""
    child_time: Dict[str, float] = {}
    for event in events:
        parent = event.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + _duration(event)

    rollup: Dict[str, Dict[str, Any]] = {}
    for event in events:
        name = str(event["name"])
        duration = _duration(event)
        self_s = max(0.0, duration - child_time.get(event.get("span", ""), 0.0))
        entry = rollup.setdefault(
            name,
            {
                "name": name,
                "count": 0,
                "total_s": 0.0,
                "self_s": 0.0,
                "max_s": 0.0,
                "errors": 0,
            },
        )
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += self_s
        entry["max_s"] = max(entry["max_s"], duration)
        if "error" in event:
            entry["errors"] += 1
    ranked = sorted(
        rollup.values(), key=lambda entry: (-entry["self_s"], entry["name"])
    )
    for entry in ranked:
        entry["mean_s"] = entry["total_s"] / entry["count"]
    return ranked


def _aggregate_tasks(events: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Executor phase breakdown over the ``campaign.task`` spans."""
    phases = {phase: 0.0 for phase in TASK_PHASES}
    wall_s = 0.0
    tasks = 0
    cached = 0
    batches = set()
    for event in events:
        if event.get("name") != "campaign.task":
            continue
        attrs = event.get("attrs") or {}
        if attrs.get("cached"):
            cached += 1
            continue
        tasks += 1
        wall_s += _duration(event)
        if attrs.get("batch") is not None:
            batches.add((event.get("pid"), int(attrs["batch"])))
        for phase in TASK_PHASES:
            value = attrs.get(phase)
            if value is not None:
                phases[phase] += float(value)
    if tasks == 0:
        return None
    covered_s = sum(phases.values())
    overhead_s = covered_s - phases["compute_s"]
    return {
        "tasks": tasks,
        "cached": cached,
        "batches": len(batches),
        "wall_s": wall_s,
        "phases_s": phases,
        "covered_s": covered_s,
        "coverage_fraction": covered_s / wall_s if wall_s > 0 else 0.0,
        "overhead_s": overhead_s,
        "overhead_fraction": overhead_s / wall_s if wall_s > 0 else 0.0,
    }


def _aggregate_failures(events: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Count the failure markers; ``None`` on a clean trace."""
    counts = {name: 0 for name in FAILURE_EVENTS}
    for event in events:
        name = event.get("name")
        if name in counts:
            counts[str(name)] += 1
    if not any(counts.values()):
        return None
    return {"failed": counts["campaign.failed"], "quarantined": counts["store.quarantine"]}


def build_report(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate trace events into the report object rendered below."""
    report: Dict[str, Any] = {
        "events": len(events),
        "processes": len({event.get("pid") for event in events}),
        "spans": _aggregate_spans(events),
    }
    if events:
        report["wall_s"] = max(float(e["end_s"]) for e in events) - min(
            float(e["start_s"]) for e in events
        )
    tasks = _aggregate_tasks(events)
    if tasks is not None:
        report["executor"] = tasks
    failures = _aggregate_failures(events)
    if failures is not None:
        report["failures"] = failures
    return report


def _fmt_s(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}ms" if seconds < 1.0 else f"{seconds:.3f}s"


def render_text(report: Dict[str, Any], stream: TextIO, top: int = 10) -> None:
    """Write the human-readable report to ``stream``."""
    wall = report.get("wall_s")
    header = f"trace: {report['events']} events, {report['processes']} processes"
    if wall is not None:
        header += f", {_fmt_s(wall)} wall"
    print(header, file=stream)

    spans = report["spans"]
    if spans:
        print(f"\ntop spans by self-time (of {len(spans)}):", file=stream)
        width = max(len(entry["name"]) for entry in spans[:top])
        for entry in spans[:top]:
            line = (
                f"  {entry['name']:<{width}}  count={entry['count']:<6d}"
                f" self={_fmt_s(entry['self_s']):>10}"
                f" total={_fmt_s(entry['total_s']):>10}"
                f" mean={_fmt_s(entry['mean_s']):>10}"
            )
            if entry["errors"]:
                line += f" errors={entry['errors']}"
            print(line, file=stream)

    executor = report.get("executor")
    if executor is not None:
        phases = executor["phases_s"]
        batches = executor.get("batches") or 0
        batched = ""
        if batches:
            batched = (
                f" in {batches} batches"
                f" (mean {executor['tasks'] / batches:.1f} tasks/batch)"
            )
        print(
            f"\nexecutor: {executor['tasks']} executed tasks"
            f" ({executor['cached']} cached){batched}, {_fmt_s(executor['wall_s'])}"
            " summed task wall time",
            file=stream,
        )
        for phase in TASK_PHASES:
            share = phases[phase] / executor["wall_s"] if executor["wall_s"] else 0.0
            print(
                f"  {phase[:-2].replace('_', '-'):<15}"
                f" {_fmt_s(phases[phase]):>10}  ({share * 100.0:5.1f}%)",
                file=stream,
            )
        print(
            f"executor overhead: {executor['overhead_fraction'] * 100.0:.1f}%"
            " of task wall time spent outside compute"
            " (queue-wait + dispatch + result-transfer)",
            file=stream,
        )
        print(
            f"phase coverage: {executor['coverage_fraction'] * 100.0:.1f}%"
            " of measured task wall time explained by the four phases",
            file=stream,
        )

    failures = report.get("failures")
    if failures is not None:
        print(
            f"\nfailures: {failures['failed']} tasks failed,"
            f" {failures['quarantined']} corrupt store objects quarantined",
            file=stream,
        )
