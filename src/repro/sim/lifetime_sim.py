"""Memory-lifetime studies with accumulated wear (Figs. 11 and 12).

Every cell receives an endurance sampled from the process-variation
distribution; each state-changing write increments the cell's wear, and a
worn-out cell becomes stuck at its current value.  The workload trace is
replayed repeatedly through the memory controller until the memory *fails*,
defined (as in the paper) as the moment the fourth distinct row can no
longer be written correctly:

* coset techniques (Unencoded, DBI/FNW, Flipcy, BCC, RCC, VCC) fail a row
  when a write leaves at least one stuck-at-wrong bit that the encoding
  could not mask;
* SECDED fails a row when any 64-bit word of the write has more than one
  wrong bit;
* ECP-3 fails a row when the write leaves more than three wrong bits in
  the row.

Lifetime is reported as the number of row (line) writes performed before
failure.  The paper's 2 GB memory and 1e8-write mean endurance are scaled
down (see DESIGN.md) so the study runs in pure Python; results are always
interpreted relative to the unencoded baseline, which the scaling
preserves.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.engine import ProgressCallback, run_campaign
from repro.campaign.spec import Task
from repro.campaign.store import ResultStore
from repro.campaign.tasks import register_task
from repro.errors import ConfigurationError, SimulationError
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.sim.harness import TechniqueSpec, build_controller, cached_trace, make_read_corrector
from repro.sim.repetition import kaplan_meier_mean
from repro.sim.results import ResultTable
from repro.utils.rng import derive_seed

__all__ = [
    "LifetimeOutcome",
    "LifetimeStudyConfig",
    "DEFAULT_LIFETIME_TECHNIQUES",
    "lifetime_study",
    "lifetime_study_tasks",
    "mean_lifetime_by_coset_count",
    "mean_lifetime_tasks",
    "simulate_lifetime",
]

#: The Fig. 11 technique line-up.  The "VCC" series uses stored kernels over
#: the full word (see DESIGN.md): the generated-kernel variant cannot touch
#: the left digit and therefore cannot reach the paper's masking coverage.
DEFAULT_LIFETIME_TECHNIQUES = (
    TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="Unencoded"),
    TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="SECDED", corrector="secded"),
    TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="ECP3", corrector="ecp3"),
    TechniqueSpec(encoder="flipcy", cost="saw-then-energy", label="Flipcy"),
    TechniqueSpec(encoder="dbi/fnw", cost="saw-then-energy", label="DBI/FNW"),
    TechniqueSpec(encoder="vcc-stored", cost="saw-then-energy", label="VCC"),
    TechniqueSpec(encoder="rcc", cost="saw-then-energy", label="RCC"),
)

DEFAULT_BENCHMARKS = ("lbm", "mcf", "bwaves", "xalancbmk")


@dataclass(frozen=True)
class LifetimeStudyConfig:
    """Shared knobs of the lifetime studies (scaled down from the paper)."""

    rows: int = 48
    word_bits: int = 64
    line_bits: int = 512
    technology: CellTechnology = CellTechnology.MLC
    mean_endurance_writes: float = 64.0
    endurance_cov: float = 0.2
    failed_rows_limit: int = 4
    max_line_writes: int = 200_000
    trace_writebacks: int = 400
    seed: int = 11


def _row_failure(spec: TechniqueSpec, saw_bits_per_word: Sequence[int], line_bits: int) -> bool:
    """Decide whether a row write with residual wrong bits is fatal."""
    if spec.corrector is None:
        return any(saw_bits_per_word)
    try:
        corrector = make_read_corrector(spec.corrector, line_bits)
    except ConfigurationError as error:
        raise SimulationError(str(error)) from error
    assert corrector is not None
    return not corrector.row_outcome(saw_bits_per_word).correctable


@dataclass(frozen=True)
class LifetimeOutcome:
    """Result of one lifetime cell: writes-to-failure plus censoring.

    Attributes
    ----------
    writes:
        Line writes completed when the simulation ended.
    censored:
        True when the memory outlived ``max_line_writes`` — ``writes`` is
        then a lower bound on the true lifetime, not a failure time.
    """

    writes: int
    censored: bool


def simulate_lifetime(
    spec: TechniqueSpec,
    benchmark: str,
    config: LifetimeStudyConfig = LifetimeStudyConfig(),
    seed_offset: int = 0,
) -> LifetimeOutcome:
    """Writes-to-failure of one technique on one benchmark.

    Returns a :class:`LifetimeOutcome`: the number of line writes
    completed before the ``failed_rows_limit``-th distinct row failed,
    with ``censored=True`` when the memory instead outlived the
    ``max_line_writes`` simulation cap (so callers can report the
    censoring instead of treating the cap as a failure time).

    The seed depends on the benchmark and the repetition, but *not* on the
    technique, so every technique faces the identical endurance landscape,
    trace, and encryption pads — the comparison is paired, as in the paper
    where all techniques replay the same captured trace.  The trace comes
    from the per-process :func:`~repro.sim.harness.cached_trace` memo, so
    the cells of one benchmark and repetition generate it once.

    The replay runs through the batched
    :meth:`~repro.memctrl.controller.MemoryController.replay_trace` engine
    with an early-stop predicate, so the write sequence (and therefore the
    lifetime) is bit-identical to the historical scalar loop while only
    the writes actually needed are paid for.
    """
    seed = derive_seed(config.seed + seed_offset, f"lifetime-{benchmark}")
    endurance = EnduranceModel(
        mean_writes=config.mean_endurance_writes,
        coefficient_of_variation=config.endurance_cov,
    )
    controller = build_controller(
        spec,
        rows=config.rows,
        technology=config.technology,
        word_bits=config.word_bits,
        line_bits=config.line_bits,
        endurance_model=endurance,
        seed=seed,
        encrypt=True,
    )
    trace = cached_trace(
        benchmark,
        config.trace_writebacks,
        config.rows,
        config.line_bits,
        config.word_bits,
        derive_seed(seed, "trace"),
    )
    if len(trace) == 0:
        raise SimulationError("lifetime simulation needs a non-empty trace")

    failed_rows: set = set()
    limit = config.failed_rows_limit
    line_bits = config.line_bits

    def stop(index: int, row_index: int, saw_cells: int, saw_bits_per_word) -> bool:
        # A write with no residual wrong bits can never fail a row under
        # any of the correctors, so the predicate short-circuits on the
        # saw-cell count the replay engine already has at hand.
        if saw_cells == 0 or row_index in failed_rows:
            return False
        if _row_failure(spec, saw_bits_per_word, line_bits):
            failed_rows.add(row_index)
            return len(failed_rows) >= limit
        return False

    repetitions = -(-config.max_line_writes // len(trace))
    replay = controller.replay_trace(
        trace,
        repetitions=repetitions,
        stop=stop,
        max_writes=config.max_line_writes,
    )
    return LifetimeOutcome(writes=replay.writes, censored=not replay.stopped_early)


@register_task(
    "fig11-lifetime-cell",
    description="writes-to-failure of one technique × benchmark × repetition (Fig. 11 cell)",
)
def _fig11_lifetime_cell(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One (benchmark × technique × repetition) cell of the Fig. 11 sweep."""
    spec = TechniqueSpec(
        encoder=params["encoder"],
        cost=params["cost"],
        num_cosets=params["num_cosets"],
        label=params["label"],
        corrector=params["corrector"],
        fault_model=params.get("fault_model"),
    )
    config = LifetimeStudyConfig(
        rows=params["rows"],
        word_bits=params["word_bits"],
        line_bits=params["line_bits"],
        technology=CellTechnology(params["technology"]),
        mean_endurance_writes=params["mean_endurance_writes"],
        endurance_cov=params["endurance_cov"],
        failed_rows_limit=params["failed_rows_limit"],
        max_line_writes=params["max_line_writes"],
        trace_writebacks=params["trace_writebacks"],
        seed=params["seed"],
    )
    outcome = simulate_lifetime(spec, params["benchmark"], config, seed_offset=params["rep"])
    return [
        {
            "benchmark": params["benchmark"],
            "technique": spec.display_name(),
            "rep": params["rep"],
            "writes_to_failure": int(outcome.writes),
            "censored": bool(outcome.censored),
        }
    ]


def lifetime_study_tasks(
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
    techniques: Sequence[TechniqueSpec] = DEFAULT_LIFETIME_TECHNIQUES,
    num_cosets: int = 256,
    config: LifetimeStudyConfig = LifetimeStudyConfig(),
    repetitions: int = 1,
    fault_model: Optional[str] = None,
) -> List[Task]:
    """The Fig. 11 sweep as campaign tasks (benchmark × technique × rep).

    ``fault_model`` (or a per-spec ``TechniqueSpec.fault_model``) selects
    a :mod:`repro.faults` model; ``None`` keeps the historical behaviour
    and the historical task hashes.
    """
    base = {
        "num_cosets": num_cosets,
        "rows": config.rows,
        "word_bits": config.word_bits,
        "line_bits": config.line_bits,
        "technology": config.technology.value,
        "mean_endurance_writes": config.mean_endurance_writes,
        "endurance_cov": config.endurance_cov,
        "failed_rows_limit": config.failed_rows_limit,
        "max_line_writes": config.max_line_writes,
        "trace_writebacks": config.trace_writebacks,
        "seed": config.seed,
    }
    tasks: List[Task] = []
    for benchmark in benchmarks:
        for spec in techniques:
            for rep in range(repetitions):
                params = dict(base)
                params.update(
                    benchmark=benchmark,
                    encoder=spec.encoder,
                    cost=spec.cost,
                    label=spec.label,
                    corrector=spec.corrector,
                    rep=rep,
                )
                model = fault_model or spec.fault_model
                if model is not None:
                    params["fault_model"] = model
                tasks.append(Task(kind="fig11-lifetime-cell", params=params))
    return tasks


def lifetime_study(
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
    techniques: Sequence[TechniqueSpec] = DEFAULT_LIFETIME_TECHNIQUES,
    num_cosets: int = 256,
    config: LifetimeStudyConfig = LifetimeStudyConfig(),
    repetitions: int = 1,
    jobs: int = 1,
    store: Union[ResultStore, str, Path, None] = None,
    progress: Optional[ProgressCallback] = None,
    fault_model: Optional[str] = None,
) -> ResultTable:
    """Fig. 11: per-benchmark writes-to-failure for every technique.

    The (benchmark × technique × repetition) cross-product runs through
    the campaign engine: ``jobs`` worker processes (bit-identical rows for
    any count) with optional result caching and resume via ``store``.
    ``fault_model`` runs the whole line-up under one :mod:`repro.faults`
    model.
    """
    tasks = lifetime_study_tasks(
        benchmarks, techniques, num_cosets, config, repetitions, fault_model=fault_model
    )
    result = run_campaign(tasks, store=store, jobs=jobs, progress=progress)
    values_by_cell: Dict[Tuple[str, str], List[Tuple[int, bool]]] = {}
    censored_cells = 0
    for row in result.rows():
        values_by_cell.setdefault((row["benchmark"], row["technique"]), []).append(
            (row["writes_to_failure"], bool(row.get("censored")))
        )
        censored_cells += bool(row.get("censored"))
    notes = (
        f"{num_cosets} cosets for coset techniques; memory and endurance are scaled "
        "down so absolute counts are not comparable to the paper, ratios are"
    )
    if censored_cells:
        notes += _censoring_note(censored_cells, len(tasks), config.max_line_writes)
    table = ResultTable(
        title="Fig. 11 — writes to failure per benchmark (scaled memory)",
        columns=["benchmark", "technique", "writes_to_failure", "improvement_vs_unencoded"],
        notes=notes,
    )
    for benchmark in benchmarks:
        lifetimes: Dict[str, float] = {
            spec.display_name(): _survival_mean(
                values_by_cell[(benchmark, spec.display_name())]
            )
            for spec in techniques
        }
        baseline = lifetimes.get("Unencoded", 0.0)
        for spec in techniques:
            lifetime = lifetimes[spec.display_name()]
            improvement = (lifetime / baseline - 1.0) * 100.0 if baseline else 0.0
            table.append(
                benchmark=benchmark,
                technique=spec.display_name(),
                writes_to_failure=lifetime,
                improvement_vs_unencoded=improvement,
            )
    return table


def _survival_mean(outcomes: Sequence[Tuple[int, bool]]) -> float:
    """Kaplan–Meier (restricted) mean of ``(writes, censored)`` repetitions.

    Censored repetitions keep the survival curve up instead of entering
    the average as failure times; with no censoring this is the ordinary
    sample mean the figures always reported.
    """
    durations = [writes for writes, _ in outcomes]
    flags = [flag for _, flag in outcomes]
    return kaplan_meier_mean(durations, flags).mean


def _censoring_note(censored: int, total: int, cap: int) -> str:
    """Shared phrasing for censored-cell reporting in the lifetime tables."""
    return (
        f"; {censored} of {total} cells censored at the {cap}-write cap "
        "(means are Kaplan-Meier restricted means, lower bounds there)"
    )


@register_task(
    "fig12-lifetime-cell",
    description="writes-to-failure at one coset count × technique × benchmark × repetition (Fig. 12 cell)",
)
def _fig12_lifetime_cell(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One (coset count × technique × benchmark × repetition) Fig. 12 cell.

    Seed derivation matches :func:`simulate_lifetime` exactly (benchmark
    and repetition only), so rows are bit-identical to the serial path and
    repetitions are paired across techniques like the Fig. 11 sweep.
    """
    spec = TechniqueSpec(
        encoder=params["encoder"],
        cost=params["cost"],
        num_cosets=params["cosets"],
        label=params["label"],
        corrector=params["corrector"],
        fault_model=params.get("fault_model"),
    )
    config = LifetimeStudyConfig(
        rows=params["rows"],
        word_bits=params["word_bits"],
        line_bits=params["line_bits"],
        technology=CellTechnology(params["technology"]),
        mean_endurance_writes=params["mean_endurance_writes"],
        endurance_cov=params["endurance_cov"],
        failed_rows_limit=params["failed_rows_limit"],
        max_line_writes=params["max_line_writes"],
        trace_writebacks=params["trace_writebacks"],
        seed=params["seed"],
    )
    outcome = simulate_lifetime(spec, params["benchmark"], config, seed_offset=params["rep"])
    return [
        {
            "cosets": params["cosets"],
            "benchmark": params["benchmark"],
            "technique": spec.display_name(),
            "rep": params["rep"],
            "writes_to_failure": int(outcome.writes),
            "censored": bool(outcome.censored),
        }
    ]


def mean_lifetime_tasks(
    coset_counts: Sequence[int] = (32, 64, 128, 256),
    benchmarks: Sequence[str] = ("lbm", "mcf"),
    techniques: Sequence[TechniqueSpec] = DEFAULT_LIFETIME_TECHNIQUES,
    config: LifetimeStudyConfig = LifetimeStudyConfig(),
    repetitions: int = 1,
    fault_model: Optional[str] = None,
) -> List[Task]:
    """The Fig. 12 sweep as campaign tasks (cosets × technique × benchmark × rep)."""
    base = {
        "rows": config.rows,
        "word_bits": config.word_bits,
        "line_bits": config.line_bits,
        "technology": config.technology.value,
        "mean_endurance_writes": config.mean_endurance_writes,
        "endurance_cov": config.endurance_cov,
        "failed_rows_limit": config.failed_rows_limit,
        "max_line_writes": config.max_line_writes,
        "trace_writebacks": config.trace_writebacks,
        "seed": config.seed,
    }
    tasks: List[Task] = []
    for cosets in coset_counts:
        for spec in techniques:
            for benchmark in benchmarks:
                for rep in range(repetitions):
                    params = dict(base)
                    params.update(
                        cosets=cosets,
                        encoder=spec.encoder,
                        cost=spec.cost,
                        label=spec.label,
                        corrector=spec.corrector,
                        benchmark=benchmark,
                        rep=rep,
                    )
                    model = fault_model or spec.fault_model
                    if model is not None:
                        params["fault_model"] = model
                    tasks.append(Task(kind="fig12-lifetime-cell", params=params))
    return tasks


def mean_lifetime_by_coset_count(
    coset_counts: Sequence[int] = (32, 64, 128, 256),
    benchmarks: Sequence[str] = ("lbm", "mcf"),
    techniques: Sequence[TechniqueSpec] = DEFAULT_LIFETIME_TECHNIQUES,
    config: LifetimeStudyConfig = LifetimeStudyConfig(),
    repetitions: int = 1,
    jobs: int = 1,
    store: Union[ResultStore, str, Path, None] = None,
    progress: Optional[ProgressCallback] = None,
    fault_model: Optional[str] = None,
) -> ResultTable:
    """Fig. 12: mean writes-to-failure across benchmarks vs. coset count.

    Techniques that do not depend on the coset count (Unencoded, SECDED,
    ECP3, Flipcy, DBI/FNW) are still re-simulated per count so every column
    of the paper's figure is present.

    The (cosets × technique × benchmark × repetition) cross-product runs
    through the campaign engine exactly like the Fig. 11 sweep: ``jobs``
    worker processes produce bit-identical rows at any count, ``store``
    enables cached resume, and ``repetitions`` adds paired seeds (the
    repetition offsets the seed identically for every technique).
    Censored cells enter the means through the Kaplan–Meier estimator
    (:func:`repro.sim.repetition.kaplan_meier_mean`) rather than being
    silently averaged in as failure times, and are counted in the notes.
    """
    tasks = mean_lifetime_tasks(
        coset_counts, benchmarks, techniques, config, repetitions, fault_model=fault_model
    )
    result = run_campaign(tasks, store=store, jobs=jobs, progress=progress)
    values_by_cell: Dict[Tuple[int, str], List[Tuple[int, bool]]] = {}
    censored_cells = 0
    for row in result.rows():
        values_by_cell.setdefault((row["cosets"], row["technique"]), []).append(
            (row["writes_to_failure"], bool(row.get("censored")))
        )
        censored_cells += bool(row.get("censored"))
    notes = "mean across " + ", ".join(benchmarks)
    if censored_cells:
        notes += _censoring_note(censored_cells, len(tasks), config.max_line_writes)
    table = ResultTable(
        title="Fig. 12 — mean writes to failure vs. coset count (scaled memory)",
        columns=["cosets", "technique", "mean_writes_to_failure"],
        notes=notes,
    )
    for cosets in coset_counts:
        for spec in techniques:
            outcomes = values_by_cell[(cosets, spec.display_name())]
            table.append(
                cosets=cosets,
                technique=spec.display_name(),
                mean_writes_to_failure=_survival_mean(outcomes),
            )
    return table
