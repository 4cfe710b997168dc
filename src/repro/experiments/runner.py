"""Command-line front end for the experiment registry.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner fig1 fig7
    python -m repro.experiments.runner all --json-dir results/
    python -m repro.experiments.runner fig9 fig10 --jobs 4 --store-dir .campaign-store

All requested experiments run as one campaign (:mod:`repro.campaign`),
so figures that share cells — Figs. 11 and 12 share lifetime cells —
simulate each distinct cell once.  ``--jobs N`` fans the campaign out
over N worker processes; results are bit-identical to a serial run.
``--store-dir`` also caches completed cells on disk, so re-running an
interrupted sweep resumes instead of starting over.

Unknown experiment identifiers exit with status 2 and the list of
available experiments instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.experiments.registry import available_experiments, run_experiments

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    """Run the requested experiments and print their tables."""
    parser = argparse.ArgumentParser(description="Regenerate the paper's figures and tables")
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment identifiers (e.g. fig1 fig7 table1) or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--json-dir",
        type=Path,
        default=None,
        help="also write each result table as JSON into this directory",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the experiments' campaign (default: 1, serial)",
    )
    parser.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        help="campaign result store for the experiments (enables caching and resume)",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.list or not args.experiments:
        print("available experiments:")
        for name in available_experiments():
            print(f"  {name}")
        return 0

    names = args.experiments
    if len(names) == 1 and names[0].lower() == "all":
        names = available_experiments()

    try:
        tables = run_experiments(
            [(name, {}) for name in names], jobs=args.jobs, store_dir=args.store_dir
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        print("available experiments:", file=sys.stderr)
        for name in available_experiments():
            print(f"  {name}", file=sys.stderr)
        return 2
    for name, table in zip(names, tables):
        print(table.format())
        print()
        if args.json_dir is not None:
            args.json_dir.mkdir(parents=True, exist_ok=True)
            table.to_json(args.json_dir / f"{name}.json")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
