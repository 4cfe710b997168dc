"""Tests for the lifetime simulator (Figs. 11 and 12), run at tiny scale."""

import pytest

from repro.campaign.store import ResultStore
from repro.campaign.tasks import run_task
from repro.coding.registry import get_encoder_plugin, register_encoder, unregister_encoder
from repro.errors import ConfigurationError
from repro.experiments.registry import get_experiment, run_experiment, run_experiments
from repro.sim.harness import TechniqueSpec
from repro.sim.lifetime_sim import LifetimeStudyConfig, _row_failure, simulate_lifetime

#: A deliberately tiny configuration: small memory, short endurance, short
#: trace.  Lifetimes are a few hundred writes, so the whole module runs in
#: well under a minute while still exercising wear, stuck cells, masking,
#: and the 4-row failure criterion.
_TINY = LifetimeStudyConfig(
    rows=24,
    mean_endurance_writes=24,
    trace_writebacks=120,
    max_line_writes=20_000,
    seed=21,
)


def _tasks(figure, **overrides):
    """The figure's task grid at its defaults updated by ``overrides``."""
    entry = get_experiment(figure)
    return entry.tasks(**{**entry.defaults, **overrides})


@pytest.fixture(scope="module")
def lifetimes():
    """Writes-to-failure of the main techniques on one benchmark."""
    specs = {
        "unencoded": TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="Unencoded"),
        "secded": TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="SECDED", corrector="secded"),
        "ecp3": TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="ECP3", corrector="ecp3"),
        "flipcy": TechniqueSpec(encoder="flipcy", cost="saw-then-energy", num_cosets=256, label="Flipcy"),
        "dbi/fnw": TechniqueSpec(encoder="dbi/fnw", cost="saw-then-energy", num_cosets=256, label="DBI/FNW"),
        "vcc": TechniqueSpec(encoder="vcc-stored", cost="saw-then-energy", num_cosets=256, label="VCC"),
        "rcc": TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=256, label="RCC"),
    }
    outcomes = {name: simulate_lifetime(spec, "lbm", _TINY) for name, spec in specs.items()}
    assert all(not outcome.censored for outcome in outcomes.values())
    return {name: outcome.writes for name, outcome in outcomes.items()}


class TestFailureCriteria:
    def test_coset_rows_fail_on_any_residual_error(self):
        spec = TechniqueSpec(encoder="vcc")
        assert _row_failure(spec, [0, 0, 1, 0, 0, 0, 0, 0], 512)
        assert not _row_failure(spec, [0] * 8, 512)

    def test_secded_tolerates_one_per_word(self):
        spec = TechniqueSpec(encoder="unencoded", corrector="secded")
        assert not _row_failure(spec, [1, 1, 0, 1, 0, 0, 0, 0], 512)
        assert _row_failure(spec, [2, 0, 0, 0, 0, 0, 0, 0], 512)

    def test_ecp_tolerates_three_per_row(self):
        spec = TechniqueSpec(encoder="unencoded", corrector="ecp3")
        assert not _row_failure(spec, [2, 1, 0, 0, 0, 0, 0, 0], 512)
        assert _row_failure(spec, [2, 2, 0, 0, 0, 0, 0, 0], 512)

    def test_unknown_corrector_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            _row_failure(TechniqueSpec(encoder="unencoded", corrector="raid"), [1], 512)


class TestLifetimeOrdering:
    """The qualitative ordering of Figs. 11/12 must hold."""

    def test_everything_eventually_fails(self, lifetimes):
        for value in lifetimes.values():
            assert 0 < value < _TINY.max_line_writes

    def test_secded_at_least_unencoded(self, lifetimes):
        assert lifetimes["secded"] >= lifetimes["unencoded"]

    def test_ecp_at_least_unencoded(self, lifetimes):
        assert lifetimes["ecp3"] >= lifetimes["unencoded"]

    def test_flipcy_close_to_unencoded(self, lifetimes):
        assert lifetimes["flipcy"] <= lifetimes["unencoded"] * 1.3

    def test_vcc_beats_simple_protection(self, lifetimes):
        assert lifetimes["vcc"] > lifetimes["unencoded"]
        assert lifetimes["vcc"] > lifetimes["flipcy"]
        assert lifetimes["vcc"] >= lifetimes["dbi/fnw"]

    def test_vcc_improvement_is_substantial(self, lifetimes):
        # The paper reports >= 50% over unencoded; allow slack at tiny scale.
        assert lifetimes["vcc"] >= lifetimes["unencoded"] * 1.3

    def test_rcc_and_vcc_comparable(self, lifetimes):
        assert lifetimes["vcc"] >= lifetimes["rcc"] * 0.7

    def test_deterministic(self):
        spec = TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="Unencoded")
        assert simulate_lifetime(spec, "lbm", _TINY) == simulate_lifetime(spec, "lbm", _TINY)

    def test_repetition_changes_seed(self):
        spec = TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="Unencoded")
        base = simulate_lifetime(spec, "lbm", _TINY, seed_offset=0)
        other = simulate_lifetime(spec, "lbm", _TINY, seed_offset=1)
        assert base.writes != other.writes

    def test_censored_when_memory_outlives_cap(self):
        # An effectively infinite endurance never fails a row: the cell
        # must report the cap as censored instead of a failure time.
        config = LifetimeStudyConfig(
            rows=24,
            mean_endurance_writes=1e9,
            trace_writebacks=60,
            max_line_writes=150,
            seed=21,
        )
        spec = TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="Unencoded")
        outcome = simulate_lifetime(spec, "lbm", config)
        assert outcome.censored
        assert outcome.writes == config.max_line_writes


class TestLifetimeStudyTable:
    def test_table_structure(self):
        table = run_experiment(
            "fig11",
            benchmarks=("lbm",),
            techniques=(
                TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="Unencoded"),
                TechniqueSpec(encoder="vcc-stored", cost="saw-then-energy", label="VCC"),
            ),
            num_cosets=64,
            config=_TINY,
        )
        assert len(table) == 2
        unencoded = table.filter(technique="Unencoded")[0]
        vcc = table.filter(technique="VCC")[0]
        assert unencoded["improvement_vs_unencoded"] == 0.0
        assert vcc["improvement_vs_unencoded"] > 0.0

    def test_censored_cells_reported_in_notes(self):
        censoring = LifetimeStudyConfig(
            rows=24,
            mean_endurance_writes=1e9,
            trace_writebacks=60,
            max_line_writes=120,
            seed=21,
        )
        table = run_experiment(
            "fig11",
            benchmarks=("lbm",),
            techniques=(
                TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="Unencoded"),
            ),
            config=censoring,
        )
        assert "1 of 1 cells censored at the 120-write cap" in table.notes


_FIG12_TECHNIQUES = (
    TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="Unencoded"),
    TechniqueSpec(encoder="rcc", cost="saw-then-energy", label="RCC"),
)


class TestFig12Campaign:
    """Fig. 12 runs through the campaign engine with the Fig. 11 contracts."""

    def test_rows_bit_identical_at_any_jobs_count(self):
        kwargs = dict(
            coset_counts=(16, 32),
            benchmarks=("lbm",),
            techniques=_FIG12_TECHNIQUES,
            config=_TINY,
        )
        serial = run_experiment("fig12", jobs=1, **kwargs)
        parallel = run_experiment("fig12", jobs=3, **kwargs)
        assert serial.rows == parallel.rows

    def test_cached_resume_executes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kwargs = dict(
            coset_counts=(16,),
            benchmarks=("lbm",),
            techniques=_FIG12_TECHNIQUES,
            config=_TINY,
        )
        first = run_experiment("fig12", store_dir=store, **kwargs)
        tasks = _tasks(
            "fig12",
            coset_counts=(16,),
            benchmarks=("lbm",),
            techniques=_FIG12_TECHNIQUES,
            config=_TINY,
        )
        assert all(store.get(task) is not None for task in tasks)
        second = run_experiment("fig12", store_dir=store, **kwargs)
        assert first.rows == second.rows

    def test_repetitions_produce_paired_seeds(self):
        """Repetition N offsets the seed identically for every technique."""
        tasks = _tasks(
            "fig12",
            coset_counts=(16,),
            benchmarks=("lbm",),
            techniques=_FIG12_TECHNIQUES,
            config=_TINY,
            repetitions=2,
        )
        assert len(tasks) == len(_FIG12_TECHNIQUES) * 2
        reps_by_technique = {}
        for task in tasks:
            reps_by_technique.setdefault(task.params["encoder"], set()).add(task.params["rep"])
        assert all(reps == {0, 1} for reps in reps_by_technique.values())
        # The rep-th repetition of any technique replays the same trace on
        # the same endurance landscape: both values change together when
        # the rep changes, exactly as simulate_lifetime's seed derivation.
        for spec in _FIG12_TECHNIQUES:
            base = simulate_lifetime(spec, "lbm", _TINY, seed_offset=0)
            other = simulate_lifetime(spec, "lbm", _TINY, seed_offset=1)
            assert base.writes != other.writes

    def test_mean_spans_benchmarks_and_repetitions(self):
        one = run_experiment(
            "fig12",
            coset_counts=(16,),
            benchmarks=("lbm",),
            techniques=_FIG12_TECHNIQUES[:1],
            config=_TINY,
            repetitions=2,
        )
        values = [
            simulate_lifetime(_FIG12_TECHNIQUES[0], "lbm", _TINY, seed_offset=rep).writes
            for rep in range(2)
        ]
        expected = sum(values) / len(values)
        assert one.rows[0]["mean_writes_to_failure"] == pytest.approx(expected)


class TestRepetitionCount:
    """A sweep with no repetitions is rejected before any task is built."""

    def test_lifetime_study_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="repetitions"):
            run_experiment("fig11", benchmarks=("lbm",), config=_TINY, repetitions=0)

    def test_mean_lifetime_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="repetitions"):
            run_experiment("fig12", benchmarks=("lbm",), config=_TINY, repetitions=0)


def _distinct(tasks):
    return {task.task_hash for task in tasks}


class TestDistinctLifetimeCells:
    """Figs. 11 and 12 share one ``lifetime-cell`` task per distinct cell."""

    def test_default_fig12_grid_has_26_distinct_cells(self):
        tasks = _tasks("fig12")
        assert len(tasks) == 56
        assert len(_distinct(tasks)) == 26

    def test_fig12_after_fig11_reuses_its_cells(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_experiment("fig11", benchmarks=("lbm", "mcf"), config=_TINY, store_dir=store)
        events = []
        run_experiment("fig12", config=_TINY, store_dir=store, progress=events.append)
        assert len(events) == 26
        assert sum(event.from_cache for event in events) == 14
        assert sum(not event.from_cache for event in events) == 12

    def test_default_fig11_and_fig12_share_cells_in_one_campaign(self):
        """One call runs each distinct cell of both default grids once: 28 + 26 - 14."""
        assert len(_distinct(_tasks("fig11")) | _distinct(_tasks("fig12"))) == 40

    def test_fig11_and_fig12_in_one_campaign_match_separate_runs(self):
        """Run together with no store, the two figures execute their shared cells once.

        Fig. 11 on lbm and bwaves (14 cells) and Fig. 12 on lbm and mcf at
        two counts (18 cells) share lbm's seven 256-coset cells.
        """
        fig11 = {"benchmarks": ("lbm", "bwaves"), "config": _TINY}
        fig12 = {"coset_counts": (32, 256), "config": _TINY}
        events = []
        together = run_experiments([("fig11", fig11), ("fig12", fig12)], progress=events.append)
        assert len(events) == 14 + 18 - 7
        assert not any(event.from_cache for event in events)
        assert together == [run_experiment("fig11", **fig11), run_experiment("fig12", **fig12)]

    def test_cell_simulates_what_its_params_say(self):
        spec = TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=16)
        (task,) = _tasks(
            "fig11", benchmarks=("lbm",), techniques=(spec,), num_cosets=16, config=_TINY
        )
        outcome = simulate_lifetime(spec, "lbm", _TINY)
        assert run_task(task) == [
            {"writes_to_failure": outcome.writes, "censored": outcome.censored}
        ]

    @pytest.mark.parametrize(
        "params, merged",
        [
            (("word_bits", "technology", "cost_function"), True),
            (("word_bits", "num_cosets", "technology", "cost_function"), False),
            (None, False),  # third-party default: every shared parameter
        ],
    )
    def test_coset_count_enters_the_hash_only_when_consumed(self, params, merged):
        factory = get_encoder_plugin("unencoded").factory
        register_encoder("test-lifetime-coder", params=params)(factory)
        try:
            tasks = _tasks(
                "fig12",
                coset_counts=(32, 256),
                benchmarks=("lbm",),
                techniques=(TechniqueSpec(encoder="test-lifetime-coder"),),
                config=_TINY,
            )
        finally:
            unregister_encoder("test-lifetime-coder")
        assert len(_distinct(tasks)) == (1 if merged else 2)

    def test_corrector_and_fault_model_separate_cells(self):
        techniques = (
            TechniqueSpec(encoder="unencoded", label="Unencoded"),
            TechniqueSpec(encoder="unencoded", label="SECDED", corrector="secded"),
            TechniqueSpec(encoder="unencoded", label="Drift", fault_model="wear-drift"),
        )
        tasks = _tasks("fig11", benchmarks=("lbm",), techniques=techniques, config=_TINY)
        assert len(_distinct(tasks)) == 3
        # A study-wide fault model overrides the specs' own, so only the
        # corrector still tells its cells apart; none matches a cell above.
        transient = _tasks(
            "fig11",
            benchmarks=("lbm",),
            techniques=techniques,
            config=_TINY,
            fault_model="transient",
        )
        assert len(_distinct(transient)) == 2
        assert not _distinct(tasks) & _distinct(transient)

    def test_label_does_not_separate_cells(self):
        techniques = (
            TechniqueSpec(encoder="flipcy", label="Flipcy"),
            TechniqueSpec(encoder="flipcy", label="Flipcy again"),
        )
        tasks = _tasks("fig11", benchmarks=("lbm",), techniques=techniques, config=_TINY)
        assert len(_distinct(tasks)) == 1

    def test_repetitions_stay_paired_and_distinct(self):
        tasks = _tasks(
            "fig12",
            coset_counts=(16, 32),
            benchmarks=("lbm",),
            techniques=_FIG12_TECHNIQUES,
            config=_TINY,
            repetitions=2,
        )
        assert len(tasks) == 8
        by_encoder = {}
        for task in tasks:
            by_encoder.setdefault(task.params["encoder"], set()).add(
                (task.params.get("num_cosets"), task.params["rep"])
            )
        # Unencoded: one cell per repetition, shared by both counts; RCC:
        # one per count and repetition.  Every technique sees reps 0 and 1.
        assert by_encoder["unencoded"] == {(None, 0), (None, 1)}
        assert by_encoder["rcc"] == {(16, 0), (16, 1), (32, 0), (32, 1)}
        assert len(_distinct(tasks)) == 6
