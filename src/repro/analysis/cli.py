"""``python -m repro.analysis`` — the static-analysis command line.

Usage::

    python -m repro.analysis src benchmarks examples   # the CI gate
    python -m repro.analysis src --format json         # machine-readable findings
    python -m repro.analysis src --select DET NUM      # only two rule families
    python -m repro.analysis rules                     # the rule catalog

Exit codes: 0 — no findings; 1 — at least one finding; 2 — configuration
error (unknown rule, unreadable path).  Every run analyzes every file
from scratch; an inline ``# repro: allow[RULE] reason=...`` waiver is the
only way to suppress a finding.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence

from repro.analysis.engine import analyze_paths
from repro.analysis.registry import RuleSpec, rule_specs
from repro.errors import ConfigurationError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The analyzer's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism-, numeric- and registry-contract static analysis "
        "for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze ('rules' prints the rule catalog)",
    )
    parser.add_argument(
        "--select",
        nargs="+",
        metavar="RULE",
        help="only run these rule codes or families (e.g. DET NUM REG001)",
    )
    parser.add_argument(
        "--ignore",
        nargs="+",
        metavar="RULE",
        help="skip these rule codes or families (wins over --select)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help="directory paths are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-finding lines; print the summary only"
    )
    return parser


def _rule_catalog_entry(spec: RuleSpec) -> Dict[str, Any]:
    doc_line = (spec.doc or spec.summary).strip().splitlines()[0].strip()
    return {
        "code": spec.code,
        "family": spec.family,
        "summary": spec.summary,
        "doc": doc_line,
        "waiver": f"# repro: allow[{spec.code}] reason=<why this site is exempt>",
    }


def _render_rules(output_format: str) -> int:
    """The ``rules`` subcommand: the full catalog, one entry per rule."""
    entries = [_rule_catalog_entry(spec) for spec in rule_specs()]
    if output_format == "json":
        print(json.dumps({"version": 1, "rules": entries}, indent=2))
        return 0
    for entry in entries:
        print(f"{entry['code']}  [{entry['family']}]")
        print(f"    {entry['doc']}")
        print(f"    waive with: {entry['waiver']}")
    print(f"{len(entries)} rule(s) registered")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.paths[:1] == ["rules"]:
        if len(args.paths) > 1:
            print("error: 'rules' takes no path arguments", file=sys.stderr)
            return 2
        return _render_rules(args.format)
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: at least one path (or 'rules') is required", file=sys.stderr)
        return 2

    try:
        findings = analyze_paths(
            args.paths, root=args.root, select=args.select, ignore=args.ignore
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        report = {"version": 2, "findings": [finding.to_json() for finding in findings]}
        print(json.dumps(report, indent=2))
    else:
        if not args.quiet:
            for finding in findings:
                print(finding.render())
        print(f"repro.analysis: {len(findings)} finding(s)")
    return 1 if findings else 0
