"""Determinism, resume and degradation contracts of every figure sweep.

Every entry of the experiment table that runs campaign tasks is checked
at a tiny scale: a serial run (``jobs=1``) and a 4-worker campaign
produce bit-identical rows, a completed sweep resumes from a result
store with zero executions, and a sweep whose tasks exhaust their
retries fails with one error naming the figure.
"""

import pytest

from repro.campaign.cli import main as campaign_main
from repro.campaign.engine import RunPolicy, reset_run_policy, set_run_policy
from repro.campaign.store import ResultStore
from repro.campaign.tasks import available_task_kinds
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.registry import get_experiment, run_experiment, sweep_names
from repro.faults.chaos import ChaosPlan
from repro.sim.harness import TechniqueSpec
from repro.sim.lifetime_sim import LifetimeStudyConfig

_TINY_LIFETIME = LifetimeStudyConfig(
    rows=16, mean_endurance_writes=20, trace_writebacks=60, max_line_writes=480, seed=5
)
_LIFETIME_TECHNIQUES = (
    TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="Unencoded"),
    TechniqueSpec(encoder="rcc", cost="saw-then-energy", label="RCC"),
)

#: name -> tiny overrides, for every entry of the table with tasks.
SWEEPS = {
    "fig1": {"coset_counts": (2, 4, 16)},
    "fig2": {"coset_counts": (1, 4, 32), "rows": 24, "num_writes": 20, "seed": 9},
    "fig7": {"coset_counts": (32,), "rows": 24, "num_writes": 20, "seed": 5},
    "fig8": {"coset_counts": (32,), "rows": 24, "num_writes": 20, "seed": 9},
    "fig9": {"benchmarks": ("lbm",), "num_cosets": 16, "writebacks_per_benchmark": 12, "rows": 24},
    "fig10": {"benchmarks": ("lbm",), "num_cosets": 16, "writebacks_per_benchmark": 12, "rows": 24},
    "fig11": {
        "benchmarks": ("lbm",),
        "techniques": _LIFETIME_TECHNIQUES,
        "num_cosets": 16,
        "config": _TINY_LIFETIME,
    },
    "fig12": {
        "coset_counts": (16, 32),
        "benchmarks": ("lbm",),
        "techniques": _LIFETIME_TECHNIQUES,
        "config": _TINY_LIFETIME,
    },
    "fig13": {"benchmarks": ("lbm", "xz")},
}


def _tasks(name, **overrides):
    entry = get_experiment(name)
    return entry.tasks(**{**entry.defaults, **overrides})


def _progress_counter():
    events = {"total": 0, "cached": 0}

    def progress(event):
        events["total"] += 1
        events["cached"] += bool(event.from_cache)

    return events, progress


class TestSweepTable:
    def test_every_sweep_has_tiny_overrides(self):
        assert sorted(SWEEPS) == sorted(sweep_names())

    def test_closed_form_entries_have_no_tasks(self):
        for name in ("fig3", "fig6", "table1", "table2"):
            assert get_experiment(name).tasks is None
            assert name not in sweep_names()

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="does not take writebacks"):
            run_experiment("fig7", writebacks=10)
        with pytest.raises(ConfigurationError, match="does not take seed"):
            run_experiment("fig3", seed=1)


class TestNewTaskKinds:
    def test_kinds_registered(self):
        names = {kind.name for kind in available_task_kinds()}
        assert {
            "fig1-analysis-cell",
            "fig2-masking-cell",
            "fig7-energy-cell",
            "fig8-saw-cell",
            "fig9-energy-cell",
            "fig10-saw-cell",
            "fig13-ipc-cell",
            "lifetime-cell",
        } <= names

    def test_bad_coset_counts_rejected_before_simulation(self):
        with pytest.raises(ConfigurationError):
            _tasks("fig2", coset_counts=(0,))
        with pytest.raises(ConfigurationError):
            _tasks("fig8", coset_counts=(1,))
        with pytest.raises(ConfigurationError):
            _tasks("fig7", coset_counts=(-4,))
        with pytest.raises(ConfigurationError):
            _tasks("fig1", coset_counts=(0,))
        with pytest.raises(ConfigurationError):
            _tasks("fig1", n=0)


class TestFigureSweepDeterminism:
    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_serial_and_parallel_rows_bit_identical(self, name):
        """A serial run and a 4-worker campaign agree exactly."""
        serial = run_experiment(name, **SWEEPS[name])
        parallel = run_experiment(name, jobs=4, **SWEEPS[name])
        assert serial.rows == parallel.rows
        assert list(serial.columns) == list(parallel.columns)
        assert len(serial) > 0

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_cached_resume_executes_nothing(self, name, tmp_path):
        """A finished sweep re-runs entirely from the store: zero executions."""
        store = tmp_path / "store"
        first_events, first_progress = _progress_counter()
        first = run_experiment(name, store_dir=store, progress=first_progress, **SWEEPS[name])
        assert first_events["cached"] == 0
        assert first_events["total"] > 0

        second_events, second_progress = _progress_counter()
        second = run_experiment(
            name, store_dir=store, jobs=2, progress=second_progress, **SWEEPS[name]
        )
        assert second_events["total"] == first_events["total"]
        assert second_events["cached"] == second_events["total"]  # zero executed
        assert first.rows == second.rows


#: name -> (CLI knobs shrinking the sweep, its distinct task count).
_DEGRADED = {
    "fig7": (["--coset-counts", "32", "--rows", "24", "--num-writes", "20"], 4),
    "fig11": (["--benchmarks", "lbm"], 7),
    "fig13": (["--benchmarks", "lbm", "xz"], 2),
}


class TestDegradedSweep:
    @pytest.mark.parametrize("name", sorted(_DEGRADED))
    def test_exhausted_retries_exit_2_naming_the_figure(self, name, capsys):
        """Every worker crashes with no retry: one error, no table, exit 2."""
        knobs, total = _DEGRADED[name]
        args = [name, "--jobs", "2", "--no-store", "--quiet", "--retries", "0"]
        args += ["--chaos-seed", "11", "--chaos-crash-rate", "1.0", *knobs]
        assert campaign_main(args) == 2
        captured = capsys.readouterr()
        assert f"error: {name}: {total} of {total} tasks failed" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_completed_tasks_stay_in_the_store(self, tmp_path):
        """A partly degraded sweep keeps its completed cells; a rerun heals the rest."""
        store = ResultStore(tmp_path / "store")
        set_run_policy(RunPolicy(degrade=True, chaos=ChaosPlan(seed=3, crash_rate=0.5)))
        try:
            with pytest.raises(SimulationError, match="fig13: [0-9]+ of 12 tasks failed") as info:
                run_experiment("fig13", jobs=2, store_dir=store)
        finally:
            reset_run_policy()
        failed = int(str(info.value).split(": ")[1].split(" of ")[0])
        assert 0 < failed < 12
        assert len(store) == 12 - failed

        events, progress = _progress_counter()
        healed = run_experiment("fig13", store_dir=store, progress=progress)
        assert events["total"] - events["cached"] == failed
        assert healed == run_experiment("fig13")

