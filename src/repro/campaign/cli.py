"""``python -m repro.campaign`` — run sweeps with workers, caching, resume.

Two ways to name the work:

* a **named sweep** — an entry of the experiment table
  (:mod:`repro.experiments.registry`) that runs campaign tasks: the
  benchmark sweeps (``fig9``, ``fig10``, ``fig11``, ``fig12``, ``fig13``)
  and the coset-count studies (``fig1``, ``fig2``, ``fig7``, ``fig8``),
  printed as the figure's result table.  Each knob flag overrides one of
  the figure's parameters and is rejected if the figure does not take
  it::

      python -m repro.campaign fig9 --jobs 4 --store .campaign-store
      python -m repro.campaign fig10 --benchmarks lbm mcf --writebacks 60
      python -m repro.campaign fig7 --jobs 2 --coset-counts 32 64 --num-writes 100

* a **spec file** — a JSON :class:`~repro.campaign.spec.SweepSpec`
  (``kind`` + ``base`` + ``grid`` + ``seeds``) for ad-hoc grids over any
  registered task kind::

      python -m repro.campaign --spec sweep.json --jobs 4 --json rows.json

Progress goes to stderr (one line per completed task, cache hits
marked); the final summary line —
``campaign finished: N tasks, E executed, C from cache`` — goes to
stdout so scripts and CI can assert on cache behaviour.  Interrupting a
run loses nothing: with ``--store`` every finished task is already on
disk and the next invocation resumes from it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import repro.obs as obs
from repro.campaign.engine import (
    CampaignProgress,
    RunPolicy,
    last_campaign_telemetry,
    reset_run_policy,
    run_campaign,
    set_run_policy,
)
from repro.campaign.spec import SweepSpec
from repro.campaign.tasks import available_task_kinds
from repro.errors import ReproError
from repro.experiments.registry import get_experiment, run_experiment, sweep_names
from repro.sim.results import ResultTable

__all__ = ["main"]


def _progress_printer(quiet: bool) -> Optional[Callable[[CampaignProgress], None]]:
    if quiet:
        return None

    def printer(event: CampaignProgress) -> None:
        print(event.format(), file=sys.stderr)

    return printer


def _named_sweep_table(
    args: argparse.Namespace,
    knobs: Sequence[argparse.Action],
    progress: Callable[[CampaignProgress], None],
) -> ResultTable:
    """Run one figure of the experiment table with the knobs given on the command line."""
    name = args.sweep.lower()
    if name not in sweep_names():
        raise ReproError(
            f"unknown sweep {args.sweep!r}; campaign sweeps: {', '.join(sweep_names())} "
            "(other experiments run via python -m repro.experiments.runner)"
        )
    defaults = get_experiment(name).defaults
    overrides: Dict[str, Any] = {}
    for knob in knobs:
        value = getattr(args, knob.dest)
        if value is None:
            continue
        if knob.dest not in defaults:
            raise ReproError(f"sweep {args.sweep!r} does not take a {knob.option_strings[0]}")
        overrides[knob.dest] = value
    return run_experiment(
        name,
        jobs=args.jobs,
        store_dir=None if args.no_store else args.store,
        progress=progress,
        **overrides,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.campaign``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run experiment sweeps in parallel with cached resume",
    )
    parser.add_argument(
        "sweep",
        nargs="?",
        help=f"named sweep ({', '.join(sweep_names())}) — or use --spec for an ad-hoc grid",
    )
    parser.add_argument("--spec", type=Path, default=None, help="JSON SweepSpec file to run")
    parser.add_argument("--jobs", type=int, default=1, metavar="N", help="worker processes")
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="tasks per worker batch for --spec runs (default: derived so "
        "every worker gets several batches); rows are identical at any value",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=Path(".campaign-store"),
        help="result store directory (default: .campaign-store)",
    )
    parser.add_argument(
        "--no-store", action="store_true", help="run without caching results on disk"
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore (and overwrite) stored results: re-execute every task",
    )
    parser.add_argument("--json", type=Path, default=None, help="write the result table as JSON")
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="append JSONL span-trace events to PATH (render with "
        "'python -m repro.obs report PATH'); results are unaffected",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress per-task progress lines")
    parser.add_argument(
        "--list-kinds", action="store_true", help="list registered task kinds and exit"
    )
    # Named-sweep knobs: each dest is a figure parameter, and a knob is
    # rejected if the figure's defaults do not list it.
    knobs = [
        parser.add_argument("--benchmarks", nargs="+", default=None, help="benchmark subset"),
        parser.add_argument("--num-cosets", type=int, default=None, help="coset candidate count"),
        parser.add_argument(
            "--coset-counts",
            nargs="+",
            type=int,
            default=None,
            help="coset-count axis (fig1/fig2/fig7/fig8/fig12)",
        ),
        parser.add_argument(
            "--writebacks",
            dest="writebacks_per_benchmark",
            type=int,
            default=None,
            help="writebacks per benchmark trace",
        ),
        parser.add_argument(
            "--num-writes",
            type=int,
            default=None,
            help="random line writes per cell (fig2/fig7/fig8)",
        ),
        parser.add_argument("--rows", type=int, default=None, help="memory rows"),
        parser.add_argument("--seed", type=int, default=None, help="campaign seed"),
        parser.add_argument(
            "--repetitions", type=int, default=None, help="repetitions (lifetime sweeps)"
        ),
        parser.add_argument(
            "--fault-model",
            default=None,
            metavar="NAME",
            help="repro.faults model for the sweep (fig2/fig11/fig12; "
            "see repro.faults.available_fault_models)",
        ),
    ]
    # Resilience knobs (see repro.campaign.engine.RunPolicy).  Any of
    # them arms graceful degradation: tasks that exhaust their retry
    # budget become structured failure rows instead of aborting the run.
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="re-queue failed or crash-lost tasks up to N times "
        "(exponential backoff); default 0 keeps fail-fast behaviour",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-task wall-clock budget in seconds (timed-out tasks "
        "retry, then degrade to failure rows)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=None,
        metavar="S",
        help="base of the exponential retry backoff (default 0.05s)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="N",
        help="arm deterministic chaos injection (worker crashes etc.) "
        "with this seed — testing only, rows are unaffected",
    )
    parser.add_argument(
        "--chaos-crash-rate",
        type=float,
        default=None,
        metavar="P",
        help="per-batch worker-crash probability for --chaos-seed runs "
        "(default 0.25)",
    )
    args = parser.parse_args(argv)

    if args.list_kinds:
        print("registered task kinds:")
        for kind in available_task_kinds():
            print(f"  {kind.name:20s} {kind.description}")
        return 0

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.batch_size is not None and args.batch_size < 1:
        parser.error("--batch-size must be >= 1")
    if (args.sweep is None) == (args.spec is None):
        parser.error("name exactly one sweep: a positional name or --spec FILE")
    if args.retries is not None and args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error("--task-timeout must be positive")
    if args.backoff is not None and args.backoff < 0:
        parser.error("--backoff must be >= 0")
    if args.chaos_crash_rate is not None and args.chaos_seed is None:
        parser.error("--chaos-crash-rate requires --chaos-seed")

    # Any resilience flag arms the degraded-run policy: retries/timeouts
    # apply and exhausted tasks become failure rows instead of aborting.
    resilience_active = any(
        value is not None
        for value in (args.retries, args.task_timeout, args.backoff, args.chaos_seed)
    )
    if resilience_active:
        try:
            chaos = None
            if args.chaos_seed is not None:
                from repro.faults.chaos import ChaosPlan

                chaos = ChaosPlan(
                    seed=args.chaos_seed,
                    crash_rate=(
                        0.25 if args.chaos_crash_rate is None else args.chaos_crash_rate
                    ),
                )
            set_run_policy(
                RunPolicy(
                    retries=args.retries or 0,
                    task_timeout_s=args.task_timeout,
                    backoff_s=0.05 if args.backoff is None else args.backoff,
                    degrade=True,
                    chaos=chaos,
                )
            )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    stats = {"done": 0, "cached": 0, "total": 0}
    printer = _progress_printer(args.quiet)

    def progress(event: CampaignProgress) -> None:
        stats["done"] = event.done
        stats["total"] = event.total
        if event.from_cache:
            stats["cached"] += 1
        if printer is not None:
            printer(event)

    if args.trace is not None:
        args.trace.parent.mkdir(parents=True, exist_ok=True)
        obs.enable_tracing(str(args.trace))

    try:
        if args.spec is not None:
            spec = SweepSpec.from_json(args.spec)
            result = run_campaign(
                spec,
                store=None if args.no_store else args.store,
                jobs=args.jobs,
                resume=not args.no_resume,
                progress=progress,
                batch_size=args.batch_size,
            )
            # Prefix each row with the sweep-axis values of its task so
            # rows stay distinguishable (e.g. across a seeds axis) even
            # when the task kind does not echo the axis into its rows.
            axis_names = [name for name, _ in spec.axes()]
            rows = []
            for task in result.tasks:
                # Failed tasks (degraded runs) have no rows to merge.
                for row in result.rows_by_hash.get(task.task_hash, []):
                    merged = {
                        name: task.params[name] for name in axis_names if name not in row
                    }
                    merged.update(row)
                    rows.append(merged)
            columns = list(rows[0]) if rows else []
            table = ResultTable(
                title=f"campaign {spec.kind} ({len(result.tasks)} tasks)", columns=columns
            ).extend(rows)
        else:
            if args.no_resume:
                parser.error("--no-resume applies only to --spec runs (figures always resume)")
            if args.batch_size is not None:
                parser.error(
                    "--batch-size applies only to --spec runs (figure sweeps "
                    "use the derived batching)"
                )
            table = _named_sweep_table(args, knobs, progress)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if resilience_active:
            reset_run_policy()

    print(table.format())
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        table.to_json(args.json)
    executed = stats["total"] - stats["cached"]
    # Telemetry is timing-dependent, so everything below goes to stderr:
    # stdout stays bit-identical between fresh and cached runs (CI diffs
    # it), carrying only the table and the deterministic summary line.
    telemetry = last_campaign_telemetry()
    if telemetry is not None and not args.quiet:
        print(f"campaign telemetry: {telemetry.summary()}", file=sys.stderr)
    if args.trace is not None:
        print(f"trace written to {args.trace}", file=sys.stderr)
    print(
        f"campaign finished: {stats['total']} tasks, "
        f"{executed} executed, {stats['cached']} from cache"
    )
    # Printed only when resilience flags are armed, so plain runs keep a
    # byte-identical stdout (CI diffs fresh vs cached invocations); the
    # counts themselves are scheduling-dependent, like the stderr
    # telemetry, which is why CI asserts on the label, not the numbers.
    if resilience_active and telemetry is not None:
        print(f"campaign resilience: {telemetry.resilience_summary()}")
    return 0
