"""Determinism and resume contracts of every figure sweep.

Every entry of the experiment table that runs campaign tasks is checked
at a tiny scale: a serial run (``jobs=1``) and a 4-worker campaign
produce bit-identical rows, and a completed sweep resumes from a result
store with zero executions.  (A sweep with failed tasks fails with one
error naming the figure: ``tests/campaign/test_failures.py``.)
"""

import pytest

from repro.campaign.tasks import available_task_kinds
from repro.errors import ConfigurationError
from repro.experiments.registry import available_experiments, get_experiment, run_experiment
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


#: Every entry of the table that runs campaign tasks.
SWEEP_NAMES = [name for name in available_experiments() if get_experiment(name).tasks is not None]


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
        assert sorted(SWEEPS) == sorted(SWEEP_NAMES)

    def test_closed_form_entries_have_no_tasks(self):
        for name in ("fig3", "fig6", "table1", "table2"):
            assert get_experiment(name).tasks is None
            assert name not in SWEEP_NAMES

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
