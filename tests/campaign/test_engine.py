"""Tests for the campaign engine: determinism, caching, resume.

The determinism tests drive a real (scaled-down) Fig. 10 sweep so the
"bit-identical at any worker count" contract is checked against the
actual simulators, not a toy task.
"""

import pytest

from repro.campaign.engine import CampaignFailed, run_campaign
from repro.campaign.spec import SweepSpec, Task
from repro.campaign.store import ResultStore
from repro.campaign.tasks import register_task, unregister_task
from repro.errors import SimulationError
from repro.sim.saw_sim import benchmark_saw_tasks


def _tiny_fig10_tasks():
    return benchmark_saw_tasks(
        benchmarks=("lbm", "mcf"),
        num_cosets=16,
        writebacks_per_benchmark=12,
        rows=32,
        seed=7,
    )


class TestDeterminism:
    def test_parallel_rows_bit_identical_to_serial(self):
        tasks = _tiny_fig10_tasks()
        serial = run_campaign(tasks, jobs=1)
        parallel = run_campaign(tasks, jobs=4)
        assert serial.rows() == parallel.rows()
        assert parallel.executed == len(tasks)

    def test_same_spec_same_hashes(self):
        first = [task.task_hash for task in _tiny_fig10_tasks()]
        second = [task.task_hash for task in _tiny_fig10_tasks()]
        assert first == second


class TestCaching:
    def test_second_run_executes_zero_tasks(self, tmp_path):
        tasks = _tiny_fig10_tasks()
        store = ResultStore(tmp_path / "store")
        first = run_campaign(tasks, store=store, jobs=1)
        assert first.executed == len(tasks) and first.cached == 0

        second = run_campaign(tasks, store=store, jobs=4)
        assert second.executed == 0 and second.cached == len(tasks)
        assert second.rows() == first.rows()

    def test_store_accepts_plain_path(self, tmp_path):
        tasks = _tiny_fig10_tasks()[:1]
        run_campaign(tasks, store=tmp_path / "store", jobs=1)
        again = run_campaign(tasks, store=str(tmp_path / "store"), jobs=1)
        assert again.executed == 0



class TestResume:
    def test_resume_after_interruption(self, tmp_path):
        """A campaign killed mid-run re-executes only the unfinished tasks."""
        crash_after = 3

        @register_task("test-flaky-cell")
        def _flaky(params):
            return [{"index": params["index"], "value": params["index"] ** 2}]

        executed_first = []

        def interrupting_progress(event):
            executed_first.append(event.task)
            if len(executed_first) >= crash_after:
                raise KeyboardInterrupt

        spec = SweepSpec(kind="test-flaky-cell", grid={"index": list(range(8))})
        store = ResultStore(tmp_path / "store")
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(spec, store=store, jobs=1, progress=interrupting_progress)
            # The interrupted run persisted exactly what completed.
            assert len(store) == crash_after

            resumed = run_campaign(spec, store=store, jobs=1)
            assert resumed.cached == crash_after
            assert resumed.executed == len(spec.expand()) - crash_after
            assert [row["value"] for row in resumed.rows()] == [i ** 2 for i in range(8)]
        finally:
            unregister_task("test-flaky-cell")


class TestEngineBasics:
    def test_progress_events_cover_every_task(self):
        tasks = _tiny_fig10_tasks()
        events = []
        run_campaign(tasks, jobs=1, progress=events.append)
        assert [event.done for event in events] == list(range(1, len(tasks) + 1))
        assert all(event.total == len(tasks) for event in events)
        assert not any(event.from_cache for event in events)

    def test_cache_hits_reported_in_progress(self, tmp_path):
        tasks = _tiny_fig10_tasks()[:2]
        store = ResultStore(tmp_path / "store")
        run_campaign(tasks, store=store, jobs=1)
        events = []
        run_campaign(tasks, store=store, jobs=1, progress=events.append)
        assert all(event.from_cache for event in events)

    def test_duplicate_tasks_execute_once_but_report_rows_twice(self):
        @register_task("test-echo-cell")
        def _echo(params):
            return [{"x": params["x"]}]

        try:
            task = Task(kind="test-echo-cell", params={"x": 5})
            result = run_campaign([task, task], jobs=1)
            assert result.executed == 1
            assert result.rows() == [{"x": 5}, {"x": 5}]
        finally:
            unregister_task("test-echo-cell")

    def test_rows_for_unknown_task_rejected(self):
        result = run_campaign([], jobs=1)
        with pytest.raises(SimulationError):
            result.rows_for(Task(kind="k", params={}))

    def test_non_task_input_rejected(self):
        with pytest.raises(SimulationError):
            run_campaign(["not a task"], jobs=1)

    def test_worker_exception_propagates(self):
        @register_task("test-boom-cell")
        def _boom(params):
            raise SimulationError("boom")

        try:
            with pytest.raises(CampaignFailed, match="1 of 1 tasks failed: .*boom"):
                run_campaign([Task(kind="test-boom-cell", params={})], jobs=1)
        finally:
            unregister_task("test-boom-cell")
