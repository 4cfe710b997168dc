"""Campaign failures: a killed worker, a worker that always dies, a task error.

The failure policy has no knob.  A batch lost to a dead worker re-runs
once on a rebuilt pool, so a sweep that survives a killed worker must
hand back rows bit-identical to a clean serial run: a task's rows are a
pure function of its parameters, whichever run produced them.  A task
that raises, or whose batch loses a worker twice, fails; the rest of the
sweep still finishes and persists, and ``run_campaign`` then raises one
:class:`CampaignFailed`.  Every failure here is injected from the test
side (a signal, a patched task kind); nothing in ``src`` exists to help.
"""

import multiprocessing
import os
import signal

import pytest

import repro.campaign.engine as engine
from repro import obs
from repro.campaign.engine import CampaignFailed, TaskFailure, run_campaign
from repro.campaign.executor import ProcessExecutor
from repro.campaign.spec import SweepSpec
from repro.campaign.store import ResultStore
from repro.campaign.tasks import _KINDS, TaskKind, get_task_kind
from repro.errors import SimulationError
from repro.experiments.registry import run_experiment, run_experiments
from repro.experiments.runner import main as runner_main

START_METHODS = multiprocessing.get_all_start_methods()


def _fig7_tasks(cells=8, num_writes=30):
    spec = SweepSpec(
        kind="fig7-energy-cell",
        base={
            "rows": 32,
            "word_bits": 64,
            "line_bits": 512,
            "num_writes": num_writes,
            "technology": "mlc",
            "encoder": "rcc",
            "cost": "energy-then-saw",
            "label": "RCC",
        },
        grid={"cosets": [4, 8]},
        seeds=tuple(range(3, 3 + (cells + 1) // 2)),
    )
    return spec.expand()[:cells]


def _patch_kind(monkeypatch, name, function):
    """Replace a builtin task kind in this process (and in forked workers)."""
    get_task_kind(name)  # load the builtins before replacing one of them
    monkeypatch.setitem(_KINDS, name, TaskKind(name=name, function=function))


def _die(params):
    os._exit(13)


def _fail_seed(seeds, original):
    """A task function that raises for the given seeds and runs the rest."""

    def function(params):
        if params["seed"] in seeds:
            raise SimulationError(f"injected failure at seed {params['seed']}")
        return original(params)

    return function


def _seeded(tasks, *seeds):
    """The tasks with one of ``seeds``, in submission order."""
    return [task for task in tasks if task.params["seed"] in seeds]


class TestCampaignFailed:
    def test_message_counts_failures_and_names_the_first(self):
        tasks = _fig7_tasks(2)
        failures = [TaskFailure(task, "error", f"boom {i}") for i, task in enumerate(tasks)]
        error = CampaignFailed(failures, 5)
        assert isinstance(error, SimulationError)
        assert str(error) == f"2 of 5 tasks failed: {failures[0].describe()}"
        assert error.failures == failures


class TestKilledWorker:
    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_rows_bit_identical_to_serial(self, monkeypatch, start_method, jobs):
        """SIGKILL one pool worker after the first executed task."""
        tasks = _fig7_tasks(8, num_writes=200)
        oracle = run_campaign(tasks, jobs=1).rows()
        monkeypatch.setattr(
            engine, "make_executor", lambda n: ProcessExecutor(n, start_method=start_method)
        )
        killed = []

        def progress(event):
            if not event.from_cache and not killed:
                victim = multiprocessing.active_children()[0]
                os.kill(victim.pid, signal.SIGKILL)
                killed.append(victim.pid)

        result = run_campaign(tasks, jobs=jobs, progress=progress)
        assert killed
        assert result.rows() == oracle
        assert result.telemetry.worker_crashes >= 1
        assert result.telemetry.degraded == 0


@pytest.mark.skipif("fork" not in START_METHODS, reason="fork start method required")
class TestWorkerDiesEveryTime:
    def test_batches_fail_as_crash_after_one_rerun(self, monkeypatch):
        _patch_kind(monkeypatch, "fig7-energy-cell", _die)
        tasks = _fig7_tasks(4)
        with pytest.raises(CampaignFailed, match="4 of 4 tasks failed") as info:
            run_campaign(tasks, jobs=2)
        assert [failure.task for failure in info.value.failures] == tasks
        assert {failure.kind for failure in info.value.failures} == {"crash"}
        telemetry = engine.last_campaign_telemetry()
        assert telemetry.worker_crashes >= 2
        assert telemetry.degraded == 4

    @pytest.mark.parametrize(
        "name, kind, knobs, total",
        [
            ("fig7", "fig7-energy-cell", ["coset_counts=32", "rows=24", "num_writes=20"], 4),
            ("fig11", "lifetime-cell", ["benchmarks=lbm"], 7),
            ("fig13", "fig13-ipc-cell", ["benchmarks=lbm,xz"], 2),
        ],
    )
    def test_runner_exits_2_naming_the_figure(self, monkeypatch, capsys, name, kind, knobs, total):
        _patch_kind(monkeypatch, kind, _die)
        args = [name, "--jobs", "2"]
        for assignment in knobs:
            args += ["--set", assignment]
        assert runner_main(args) == 2
        captured = capsys.readouterr()
        assert f"error: {name}: {total} of {total} tasks failed" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestTaskError:
    def test_other_tasks_persist_and_a_rerun_heals(self, monkeypatch, tmp_path):
        original = get_task_kind("fig13-ipc-cell").function

        def _mcf_fails(params):
            if params["benchmark"] == "mcf":
                raise SimulationError("injected task failure")
            return original(params)

        _patch_kind(monkeypatch, "fig13-ipc-cell", _mcf_fails)
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SimulationError, match="fig13: 1 of 12 tasks failed: .*injected"):
            run_experiment("fig13", store_dir=store)
        assert len(store) == 11

        monkeypatch.undo()
        executed = []
        healed = run_experiment(
            "fig13", store_dir=store, progress=lambda e: executed.append(not e.from_cache)
        )
        assert sum(executed) == 1
        assert healed == run_experiment("fig13")


    def test_a_failed_task_runs_once_and_is_not_stored(self, monkeypatch, tmp_path):
        original = get_task_kind("fig7-energy-cell").function
        calls = []

        def counted(params):
            calls.append(params["seed"])
            return _fail_seed({3}, original)(params)

        _patch_kind(monkeypatch, "fig7-energy-cell", counted)
        tasks = _fig7_tasks(4)
        store = ResultStore(tmp_path / "store")
        with pytest.raises(CampaignFailed, match="2 of 4 tasks failed") as info:
            run_campaign(tasks, store=store, jobs=1)
        assert sorted(calls) == [3, 3, 4, 4]  # each task once, no retry
        failed = [failure.task for failure in info.value.failures]
        assert failed == _seeded(tasks, 3)
        assert {failure.kind for failure in info.value.failures} == {"error"}
        assert [store.get(task) is None for task in tasks] == [
            task.params["seed"] == 3 for task in tasks
        ]

    def test_progress_and_telemetry_report_the_failure(self, monkeypatch):
        original = get_task_kind("fig7-energy-cell").function
        _patch_kind(monkeypatch, "fig7-energy-cell", _fail_seed({4}, original))
        tasks = _fig7_tasks(4)
        events = []
        with pytest.raises(CampaignFailed):
            run_campaign(tasks, jobs=1, progress=events.append)
        assert [event.done for event in events] == [1, 2, 3, 4]
        assert [event.task for event in events if event.failed] == _seeded(tasks, 4)
        telemetry = engine.last_campaign_telemetry()
        assert telemetry.degraded == 2
        assert telemetry.batches == 2  # the two executed tasks

    @pytest.mark.skipif("fork" not in START_METHODS, reason="fork start method required")
    def test_rest_of_the_batch_is_delivered(self, monkeypatch):
        original = get_task_kind("fig7-energy-cell").function
        _patch_kind(monkeypatch, "fig7-energy-cell", _fail_seed({3}, original))
        tasks = _fig7_tasks(4)
        delivered, failures = [], []
        executor = ProcessExecutor(2, batch_size=4, start_method="fork")
        crashes = executor.run(
            tasks, lambda task, rows, telemetry: delivered.append(task), failures.append
        )
        assert crashes == 0
        assert delivered == _seeded(tasks, 4)
        assert [failure.task for failure in failures] == _seeded(tasks, 3)
        assert all("injected failure at seed 3" in failure.message for failure in failures)

    @pytest.mark.skipif("fork" not in START_METHODS, reason="fork start method required")
    def test_failures_raised_in_submission_order(self, monkeypatch):
        original = get_task_kind("fig7-energy-cell").function
        _patch_kind(monkeypatch, "fig7-energy-cell", _fail_seed({3, 6}, original))
        tasks = _fig7_tasks(8)
        with pytest.raises(CampaignFailed, match="4 of 8 tasks failed") as info:
            run_campaign(tasks, jobs=2)
        assert [failure.task for failure in info.value.failures] == _seeded(tasks, 3, 6)

    def test_trace_report_counts_the_failed_task(self, monkeypatch, tmp_path):
        original = get_task_kind("fig7-energy-cell").function
        _patch_kind(monkeypatch, "fig7-energy-cell", _fail_seed({3}, original))
        trace = tmp_path / "trace.jsonl"
        obs.enable_tracing(str(trace))
        try:
            with pytest.raises(CampaignFailed):
                run_campaign(_fig7_tasks(4), jobs=1)
        finally:
            obs.disable_tracing()
        report = obs.build_report(obs.load_trace(str(trace)))
        assert report["failures"] == {"failed": 2, "quarantined": 0}

    def test_error_names_only_the_figures_that_lost_tasks(self, monkeypatch, tmp_path):
        _patch_kind(monkeypatch, "fig7-energy-cell", _fail_seed({2022}, lambda params: []))
        small = {"coset_counts": (32,), "rows": 24, "num_writes": 20}
        with pytest.raises(SimulationError) as info:
            run_experiments([("fig7", small), ("fig8", small)], store_dir=tmp_path / "store")
        message = str(info.value)
        assert message.startswith("fig7: 4 of 4 tasks failed: ")
        assert "fig8" not in message
        assert message.endswith("a rerun executes only the failed ones)")


class TestStoreQuarantine:
    def test_corrupt_object_quarantined_and_recomputed(self, tmp_path):
        tasks = _fig7_tasks(4)
        store = ResultStore(tmp_path / "store")
        first = run_campaign(tasks, store=store, jobs=1)
        store._path(tasks[0].task_hash).write_text('{"schema": 1, "task_hash": "')
        second = run_campaign(tasks, store=store, jobs=1)
        assert second.cached == 3
        assert second.executed == 1
        assert second.rows() == first.rows()
        corpses = list((tmp_path / "store").rglob("*.corrupt"))
        assert len(corpses) == 1
        assert corpses[0].stem == tasks[0].task_hash
