"""Command-line front end for the experiment registry.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner fig1 fig7
    python -m repro.experiments.runner all --json-dir results/
    python -m repro.experiments.runner fig9 fig10 --jobs 4 --store-dir .campaign-store
    python -m repro.experiments.runner fig7 --set coset_counts=32,64 --set num_writes=100

All requested experiments run as one campaign (:mod:`repro.campaign`),
so figures that share cells — Figs. 11 and 12 share lifetime cells —
simulate each distinct cell once.  ``--jobs N`` fans the campaign out
over N worker processes; results are bit-identical to a serial run.
``--store-dir`` also caches completed cells on disk, so re-running an
interrupted sweep resumes instead of starting over.

``--set key=value`` overrides one parameter of every requested
experiment.  Each key must be one of the entry's defaults, checked
before anything runs; the value is parsed by the type of that default
(a tuple takes a comma list of its element type, a ``None`` default a
string).  Structured parameters (``config``, ``techniques``, ``system``,
``model``) are set from Python with :func:`run_experiment`.

Tables go to stdout; the ``campaign finished: N tasks, E executed, C
from cache`` summary goes to stderr, so stdout is identical between a
fresh and a resumed run.  Any library error exits with status 2 and one
``error: ...`` line instead of a traceback.  A pool-level error (a batch
the worker pool cannot pickle, say) is not a library error: it
propagates with its traceback, exit status 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

import repro.obs as obs
from repro.campaign.engine import CampaignProgress
from repro.errors import ConfigurationError, ReproError
from repro.experiments.registry import (
    _params,
    available_experiments,
    get_experiment,
    run_experiments,
)

__all__ = ["main"]

#: Default types a ``--set`` value is parsed as.
_SCALARS = (int, float, str)


def _parse_value(name: str, key: str, default: Any, text: str) -> Any:
    """Parse one ``--set`` value by the type of the entry's default."""
    if default is None:
        return text
    if isinstance(default, _SCALARS):
        kind = type(default)
    elif isinstance(default, tuple) and all(isinstance(item, _SCALARS) for item in default):
        kind = type(default[0]) if default else str
        try:
            return tuple(kind(item.strip()) for item in text.split(","))
        except ValueError:
            raise ConfigurationError(
                f"{name}: {key} takes a comma list of {kind.__name__}, got {text!r}"
            ) from None
    else:
        raise ConfigurationError(
            f"{name}: {key} is a structured parameter; set it from Python with run_experiment"
        )
    try:
        return kind(text)
    except ValueError:
        raise ConfigurationError(f"{name}: {key} takes {kind.__name__}, got {text!r}") from None


def _overrides(name: str, assignments: Mapping[str, str]) -> Dict[str, Any]:
    """The ``--set`` assignments as typed overrides of one experiment."""
    _params(name, assignments)  # rejects a key the entry does not take
    defaults = get_experiment(name).defaults
    return {
        key: _parse_value(name, key, defaults[key], text) for key, text in assignments.items()
    }


def _assignments(pairs: Sequence[str], parser: argparse.ArgumentParser) -> Dict[str, str]:
    """Split ``key=value`` strings, rejecting a malformed or repeated key."""
    assignments: Dict[str, str] = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep or not key:
            parser.error(f"--set takes key=value, got {pair!r}")
        if key in assignments:
            parser.error(f"--set {key} given twice")
        assignments[key] = text
    return assignments


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
    parser.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one parameter of every requested experiment "
        "(e.g. --set coset_counts=32,64 --set benchmarks=lbm)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="append JSONL span-trace events to PATH (render with "
        "'python -m repro.obs report PATH'); results are unaffected",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    assignments = _assignments(args.assignments, parser)

    if args.list or not args.experiments:
        print("available experiments:")
        for name in available_experiments():
            print(f"  {name}")
        return 0

    names = args.experiments
    if len(names) == 1 and names[0].lower() == "all":
        names = available_experiments()

    counts = {"total": 0, "cached": 0}

    def progress(event: CampaignProgress) -> None:
        counts["total"] = event.total
        counts["cached"] += event.from_cache

    if args.trace is not None:
        args.trace.parent.mkdir(parents=True, exist_ok=True)
        obs.enable_tracing(str(args.trace))
    try:
        requests = [(name, _overrides(name, assignments)) for name in names]
        tables = run_experiments(
            requests, jobs=args.jobs, store_dir=args.store_dir, progress=progress
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if args.trace is not None:
            obs.disable_tracing()
    for name, table in zip(names, tables):
        print(table.format())
        print()
        if args.json_dir is not None:
            args.json_dir.mkdir(parents=True, exist_ok=True)
            table.to_json(args.json_dir / f"{name}.json")
    if args.trace is not None:
        print(f"trace written to {args.trace}", file=sys.stderr)
    print(
        f"campaign finished: {counts['total']} tasks, "
        f"{counts['total'] - counts['cached']} executed, {counts['cached']} from cache",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
