"""``python -m repro.obs`` — telemetry command line.

Usage::

    python -m repro.obs report trace.jsonl              # text rollup
    python -m repro.obs report trace.jsonl --format json
    python -m repro.obs report trace.jsonl --top 20
    python -m repro.obs metrics                         # metric glossary

Exit codes: 0 — report rendered; 2 — configuration error (unreadable or
malformed trace file).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.metrics import REGISTRY
from repro.obs.report import build_report, load_trace, render_text

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The telemetry CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run-telemetry reports for the repro codebase.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser(
        "report", help="roll a JSONL span trace up into a run report"
    )
    report.add_argument("trace", help="trace file written by --trace / REPRO_TRACE")
    report.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    report.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="span names to list in the self-time ranking (default: 10)",
    )

    commands.add_parser(
        "metrics",
        help="list the metrics registered by the instrumented modules",
    )
    return parser


def _run_report(trace: str, output_format: str, top: int) -> int:
    events = load_trace(trace)
    report = build_report(events)
    if output_format == "json":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        render_text(report, sys.stdout, top=top)
    return 0


def _run_metrics() -> int:
    # Importing the instrumented packages is what registers their
    # metrics — same lazy pattern as the builtin encoders and task kinds.
    import repro.campaign  # noqa: F401
    import repro.coding  # noqa: F401
    import repro.crypto.counter_mode  # noqa: F401
    import repro.memctrl.controller  # noqa: F401

    for name, description in REGISTRY.describe().items():
        kind = REGISTRY.get(name).kind
        print(f"{name:<32} {kind:<10} {description}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _run_report(args.trace, args.format, args.top)
        return _run_metrics()
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
