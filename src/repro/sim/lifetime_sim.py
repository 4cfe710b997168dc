"""Memory-lifetime figures with accumulated wear (Figs. 11 and 12).

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

Both figures run the one ``lifetime-cell`` task kind: their task
builders (:func:`lifetime_study_tasks`, :func:`mean_lifetime_tasks`)
expand the figure's parameters into cells, and their tables
(:func:`lifetime_table`, :func:`mean_lifetime_table`) aggregate the
cells' rows (the entries of :mod:`repro.experiments.registry`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.spec import Task
from repro.campaign.tasks import register_task
from repro.coding.registry import get_encoder_plugin
from repro.errors import ConfigurationError, SimulationError
from repro.memctrl.controller import MemoryController, ReplayResult, ReplayStop, replay_stacked
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
    "lifetime_study_tasks",
    "lifetime_table",
    "mean_lifetime_table",
    "mean_lifetime_tasks",
    "simulate_lifetime",
    "simulate_lifetimes",
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
    """Shared knobs of the lifetime figures (scaled down from the paper)."""

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


def _failure_judge(spec: TechniqueSpec, line_bits: int) -> Callable[[Sequence[int]], bool]:
    """The fatal-write test of ``spec``'s corrector, built once per cell.

    Without a corrector any residual wrong bit kills the row; otherwise
    the row dies when the corrector cannot recover the write.
    """
    corrector = make_read_corrector(spec.corrector, line_bits)
    if corrector is None:
        return any
    return lambda saw_bits_per_word: not corrector.row_outcome(saw_bits_per_word).correctable


def _row_failure(spec: TechniqueSpec, saw_bits_per_word: Sequence[int], line_bits: int) -> bool:
    """Decide whether a row write with residual wrong bits is fatal."""
    return _failure_judge(spec, line_bits)(saw_bits_per_word)


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
    the writes actually needed are paid for.  :func:`simulate_lifetimes`
    runs several techniques of one benchmark and repetition as one
    stacked replay with exactly these outcomes.
    """
    return simulate_lifetimes([spec], benchmark, config, seed_offset)[0]


def simulate_lifetimes(
    specs: Sequence[TechniqueSpec],
    benchmark: str,
    config: LifetimeStudyConfig = LifetimeStudyConfig(),
    seed_offset: int = 0,
) -> List[LifetimeOutcome]:
    """:func:`simulate_lifetime` of several techniques, as one stacked replay.

    The techniques of one benchmark and repetition share the trace, the
    ciphertext stream and the endurance landscape, and the replay's wave
    schedule does not depend on the encoder, so their memories run as
    the bands of one :func:`~repro.memctrl.controller.replay_stacked`
    call: each wave gathers, scatters and accounts every band's rows at
    once, each band keeps its own stop predicate and leaves the stack
    when its memory fails.  Outcome ``i`` equals
    ``simulate_lifetime(specs[i], ...)`` exactly.
    """
    return [
        LifetimeOutcome(writes=replay.writes, censored=not replay.stopped_early)
        for _, replay in _lifetime_replays(specs, benchmark, config, seed_offset)
    ]


def _lifetime_replays(
    specs: Sequence[TechniqueSpec],
    benchmark: str,
    config: LifetimeStudyConfig,
    seed_offset: int,
) -> List[Tuple[MemoryController, ReplayResult]]:
    """Build one controller per spec and replay them to failure together.

    A lone spec replays through its controller's
    :meth:`~repro.memctrl.controller.MemoryController.replay_trace`, the
    one-band case of the stacked replay.
    """
    seed = derive_seed(config.seed + seed_offset, f"lifetime-{benchmark}")
    endurance = EnduranceModel(
        mean_writes=config.mean_endurance_writes,
        coefficient_of_variation=config.endurance_cov,
    )
    controllers = [
        build_controller(
            spec,
            rows=config.rows,
            technology=config.technology,
            word_bits=config.word_bits,
            line_bits=config.line_bits,
            endurance_model=endurance,
            seed=seed,
            encrypt=True,
        )
        for spec in specs
    ]
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
    stops = [_failure_stop(spec, config) for spec in specs]
    repetitions = -(-config.max_line_writes // len(trace))
    if len(controllers) == 1:
        replays = [
            controllers[0].replay_trace(
                trace, repetitions=repetitions, stop=stops[0], max_writes=config.max_line_writes
            )
        ]
    else:
        replays = replay_stacked(
            controllers, trace, repetitions, stops, max_writes=config.max_line_writes
        )
    return list(zip(controllers, replays))


def _failure_stop(spec: TechniqueSpec, config: LifetimeStudyConfig) -> ReplayStop:
    """The replay stop of one cell: true at the ``failed_rows_limit``-th failed row."""
    failed_rows: set = set()
    limit = config.failed_rows_limit
    fatal = _failure_judge(spec, config.line_bits)

    def stop(index: int, row_index: int, saw_cells: int, saw_bits_per_word) -> bool:
        # A write with no residual wrong bits can never fail a row under
        # any of the correctors, so the predicate short-circuits on the
        # saw-cell count the replay engine already has at hand.
        if saw_cells == 0 or row_index in failed_rows:
            return False
        if fatal(saw_bits_per_word):
            failed_rows.add(row_index)
            return len(failed_rows) >= limit
        return False

    return stop


def _check_repetitions(repetitions: int) -> None:
    """Reject a repetition count that would leave the tables without cells."""
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be at least 1, got {repetitions}")


def _lifetime_cell_task(
    spec: TechniqueSpec,
    benchmark: str,
    num_cosets: int,
    config: LifetimeStudyConfig,
    rep: int,
    fault_model: Optional[str],
) -> Task:
    """One lifetime cell as a task whose params are exactly what it simulates.

    ``num_cosets`` enters the params only when the encoder's registry entry
    consumes it, and the display label never does, so cells that simulate
    the same thing share one content hash: the campaign engine runs them
    once per sweep, and a shared store once across Figs. 11 and 12.
    ``fault_model`` (or the spec's own) is recorded only when set.
    """
    params: Dict[str, Any] = dict(asdict(config), technology=config.technology.value)
    params.update(
        benchmark=benchmark,
        encoder=spec.encoder,
        cost=spec.cost,
        corrector=spec.corrector,
        rep=rep,
    )
    if "num_cosets" in get_encoder_plugin(spec.encoder).params:
        params["num_cosets"] = num_cosets
    model = fault_model or spec.fault_model
    if model is not None:
        params["fault_model"] = model
    return Task(kind="lifetime-cell", params=params)


def _lifetime_cell_inputs(params: Dict[str, Any]) -> Tuple[TechniqueSpec, LifetimeStudyConfig]:
    """Decode ``lifetime-cell`` params back into the simulation's inputs."""
    optional = {key: params[key] for key in ("num_cosets", "fault_model") if key in params}
    spec = TechniqueSpec(
        encoder=params["encoder"], cost=params["cost"], corrector=params["corrector"], **optional
    )
    values = {knob.name: params[knob.name] for knob in fields(LifetimeStudyConfig)}
    values["technology"] = CellTechnology(values["technology"])
    return spec, LifetimeStudyConfig(**values)


#: The ``lifetime-cell`` params that name the technique; the others name
#: the memory, trace and repetition a cell replays.
_TECHNIQUE_PARAMS = ("encoder", "cost", "corrector", "num_cosets")


def _outcome_rows(outcome: LifetimeOutcome) -> List[Dict[str, Any]]:
    return [{"writes_to_failure": int(outcome.writes), "censored": bool(outcome.censored)}]


def _lifetime_cell_stack(params_list: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    """Consecutive lifetime cells, those of one memory and repetition stacked.

    Cells whose params differ only in the technique (one config,
    benchmark, repetition and fault model) replay as one
    :func:`simulate_lifetimes` call; each cell's rows are exactly those
    :func:`_lifetime_cell` gives it alone.
    """
    groups: Dict[str, List[int]] = {}
    for position, params in enumerate(params_list):
        memory = sorted(item for item in params.items() if item[0] not in _TECHNIQUE_PARAMS)
        groups.setdefault(repr(memory), []).append(position)
    rows: List[List[Dict[str, Any]]] = [[] for _ in params_list]
    for positions in groups.values():
        inputs = [_lifetime_cell_inputs(params_list[position]) for position in positions]
        first = params_list[positions[0]]
        outcomes = simulate_lifetimes(
            [spec for spec, _ in inputs], first["benchmark"], inputs[0][1], seed_offset=first["rep"]
        )
        for position, outcome in zip(positions, outcomes, strict=True):
            rows[position] = _outcome_rows(outcome)
    return rows


@register_task(
    "lifetime-cell",
    description="writes-to-failure of one technique × benchmark × repetition (Figs. 11-12 cell)",
    stack=_lifetime_cell_stack,
)
def _lifetime_cell(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One lifetime cell; the figure table that built the task places its row.

    Seed derivation is :func:`simulate_lifetime`'s (benchmark and
    repetition only), so repetitions are paired across techniques, and
    a batch's consecutive cells run stacked (:func:`_lifetime_cell_stack`).
    """
    spec, config = _lifetime_cell_inputs(params)
    return _outcome_rows(
        simulate_lifetime(spec, params["benchmark"], config, seed_offset=params["rep"])
    )


#: The cells' rows in task order: one ``{writes_to_failure, censored}``
#: row per occurrence.
_Results = Sequence[Dict[str, Any]]


def _outcomes(
    keys: Iterable[Tuple[Any, str]], results: _Results
) -> Dict[Tuple[Any, str], List[Tuple[int, bool]]]:
    """Group the occurrences' outcomes under their table cells' keys."""
    outcomes: Dict[Tuple[Any, str], List[Tuple[int, bool]]] = {}
    for key, row in zip(keys, results, strict=True):
        outcomes.setdefault(key, []).append((row["writes_to_failure"], row["censored"]))
    return outcomes


def _censoring_note(results: _Results, cap: int) -> str:
    """Censored-cell reporting, counted once per occurrence ('' when none)."""
    censored = sum(row["censored"] for row in results)
    if not censored:
        return ""
    return (
        f"; {censored} of {len(results)} cells censored at the {cap}-write cap "
        "(means are Kaplan-Meier restricted means, lower bounds there)"
    )


def _survival_mean(outcomes: Sequence[Tuple[int, bool]]) -> float:
    """Kaplan–Meier (restricted) mean of ``(writes, censored)`` repetitions.

    Censored repetitions keep the survival curve up instead of entering
    the average as failure times; with no censoring this is the ordinary
    sample mean the figures always reported.
    """
    durations = [writes for writes, _ in outcomes]
    flags = [flag for _, flag in outcomes]
    return kaplan_meier_mean(durations, flags).mean


def lifetime_study_tasks(
    *,
    benchmarks: Sequence[str],
    techniques: Sequence[TechniqueSpec],
    num_cosets: int,
    config: LifetimeStudyConfig,
    repetitions: int,
    fault_model: Optional[str],
) -> List[Task]:
    """The Fig. 11 sweep as campaign tasks (benchmark × rep × technique).

    The cells of one benchmark and repetition are adjacent, so a batch
    runs them stacked.  ``fault_model`` (or a per-spec
    ``TechniqueSpec.fault_model``) selects a :mod:`repro.faults` model;
    ``None`` keeps the static stuck-at model.
    """
    _check_repetitions(repetitions)
    return [
        _lifetime_cell_task(spec, benchmark, num_cosets, config, rep, fault_model)
        for benchmark in benchmarks
        for rep in range(repetitions)
        for spec in techniques
    ]


def lifetime_table(
    results: _Results,
    *,
    benchmarks: Sequence[str],
    techniques: Sequence[TechniqueSpec],
    num_cosets: int,
    config: LifetimeStudyConfig,
    repetitions: int,
    **_: Any,
) -> ResultTable:
    """Fig. 11: per-benchmark writes-to-failure for every technique.

    Repetitions of one (benchmark, technique) enter its Kaplan–Meier mean;
    the improvement column is relative to the Unencoded line-up entry.
    """
    keys = (
        (benchmark, spec.display_name())
        for benchmark in benchmarks
        for _ in range(repetitions)
        for spec in techniques
    )
    outcomes = _outcomes(keys, results)
    notes = (
        f"{num_cosets} cosets for coset techniques; memory and endurance are scaled "
        "down so absolute counts are not comparable to the paper, ratios are"
    )
    table = ResultTable(
        title="Fig. 11 — writes to failure per benchmark (scaled memory)",
        columns=["benchmark", "technique", "writes_to_failure", "improvement_vs_unencoded"],
        notes=notes + _censoring_note(results, config.max_line_writes),
    )
    for benchmark in benchmarks:
        lifetimes: Dict[str, float] = {
            spec.display_name(): _survival_mean(outcomes[(benchmark, spec.display_name())])
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


def mean_lifetime_tasks(
    *,
    coset_counts: Sequence[int],
    benchmarks: Sequence[str],
    techniques: Sequence[TechniqueSpec],
    config: LifetimeStudyConfig,
    repetitions: int,
    fault_model: Optional[str],
) -> List[Task]:
    """The Fig. 12 sweep as campaign tasks (benchmark × rep × cosets × technique).

    One task per occurrence; occurrences that simulate the same cell
    (a coset-independent technique at several counts, or a cell Fig. 11
    also runs) are equal tasks, which the campaign engine runs once.
    The cells of one benchmark and repetition are adjacent, so a batch
    runs them stacked.
    """
    _check_repetitions(repetitions)
    return [
        _lifetime_cell_task(spec, benchmark, cosets, config, rep, fault_model)
        for benchmark in benchmarks
        for rep in range(repetitions)
        for cosets in coset_counts
        for spec in techniques
    ]


def mean_lifetime_table(
    results: _Results,
    *,
    coset_counts: Sequence[int],
    benchmarks: Sequence[str],
    techniques: Sequence[TechniqueSpec],
    config: LifetimeStudyConfig,
    repetitions: int,
    **_: Any,
) -> ResultTable:
    """Fig. 12: mean writes-to-failure across benchmarks vs. coset count.

    Techniques whose encoder does not consume the coset count (Unencoded,
    SECDED, ECP3, Flipcy, DBI/FNW) are simulated once per benchmark and
    repetition: their tasks omit ``num_cosets``, so every count shares one
    task, and the same value fills each column of the paper's figure.
    Censored cells enter the means through the Kaplan–Meier estimator
    (:func:`repro.sim.repetition.kaplan_meier_mean`) rather than being
    silently averaged in as failure times, and are counted, once per
    occurrence, in the notes.
    """
    keys = (
        (cosets, spec.display_name())
        for _ in range(len(benchmarks) * repetitions)
        for cosets in coset_counts
        for spec in techniques
    )
    outcomes = _outcomes(keys, results)
    table = ResultTable(
        title="Fig. 12 — mean writes to failure vs. coset count (scaled memory)",
        columns=["cosets", "technique", "mean_writes_to_failure"],
        notes="mean across " + ", ".join(benchmarks)
        + _censoring_note(results, config.max_line_writes),
    )
    for cosets in coset_counts:
        for spec in techniques:
            table.append(
                cosets=cosets,
                technique=spec.display_name(),
                mean_writes_to_failure=_survival_mean(outcomes[(cosets, spec.display_name())]),
            )
    return table
