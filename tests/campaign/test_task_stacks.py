"""Stacked task execution: consecutive lifetime cells run as one replay.

A task kind with a stack runner (``lifetime-cell``) runs a batch's
consecutive tasks in one call, in the worker and in the serial executor
alike.  Every task must still get exactly the rows it gets alone; a task
that raises fails alone, its stack-mates keep their rows; and the
merged metrics still count every performed write once.
"""

import pytest

import repro.obs as obs
from repro.campaign.engine import CampaignFailed, run_campaign
from repro.campaign.executor import ProcessExecutor, SerialExecutor
from repro.campaign.spec import Task
from repro.campaign.tasks import register_task, run_stack, run_task, task_stacks
from repro.errors import ConfigurationError
from repro.sim.lifetime_sim import (
    DEFAULT_LIFETIME_TECHNIQUES,
    LifetimeStudyConfig,
    lifetime_study_tasks,
)

SMALL = LifetimeStudyConfig(
    rows=16, mean_endurance_writes=20, trace_writebacks=60, max_line_writes=480, seed=5
)


def _lifetime_tasks(benchmarks=("lbm", "mcf"), repetitions=1):
    return lifetime_study_tasks(
        benchmarks=benchmarks,
        techniques=DEFAULT_LIFETIME_TECHNIQUES,
        num_cosets=32,
        config=SMALL,
        repetitions=repetitions,
        fault_model=None,
    )


def _other_task():
    return Task(
        kind="fig7-energy-cell",
        params={
            "rows": 32, "word_bits": 64, "line_bits": 512, "num_writes": 20,
            "technology": "mlc", "encoder": "rcc", "cost": "energy", "label": "RCC",
            "cosets": 4, "seed": 3,
        },
    )


def _broken(task):
    """The same cell with an encoder no registry knows: it raises when built."""
    return Task(kind=task.kind, params=dict(task.params, encoder="no-such-encoder"))


def _run(executor, tasks):
    rows, failures = {}, []
    executor.run(
        tasks,
        lambda task, task_rows, telemetry: rows.__setitem__(task.task_hash, task_rows),
        failures.append,
    )
    return rows, failures


EXECUTORS = {
    "serial": SerialExecutor,
    "pool-one-batch": lambda: ProcessExecutor(2, batch_size=16),
    "pool-batches-of-4": lambda: ProcessExecutor(2, batch_size=4),
}


class TestStacks:
    def test_consecutive_stackable_tasks_form_one_stack(self):
        lifetime = _lifetime_tasks()
        other = _other_task()
        tasks = [other, *lifetime[:3], other, lifetime[3], lifetime[10]]
        assert [len(stack) for stack in task_stacks(tasks)] == [1, 3, 1, 2]

    def test_run_stack_gives_each_task_its_own_rows(self):
        tasks = _lifetime_tasks(repetitions=2)
        assert run_stack(tasks) == [run_task(task) for task in tasks]

    def test_stack_runner_must_take_one_argument(self):
        with pytest.raises(ConfigurationError, match="stack runner"):
            register_task("test-bad-stack", stack=lambda first, second: [])


class TestExecutors:
    @pytest.mark.parametrize("executor", list(EXECUTORS), ids=list(EXECUTORS))
    def test_rows_equal_solo_runs(self, executor):
        tasks = _lifetime_tasks()
        rows, failures = _run(EXECUTORS[executor](), tasks)
        assert failures == []
        assert rows == {task.task_hash: run_task(task) for task in tasks}

    @pytest.mark.parametrize("executor", list(EXECUTORS), ids=list(EXECUTORS))
    @pytest.mark.parametrize("position", [0, 5, 13])
    def test_a_failing_task_fails_alone(self, executor, position):
        tasks = _lifetime_tasks()
        tasks[position] = _broken(tasks[position])
        rows, failures = _run(EXECUTORS[executor](), tasks)
        assert [failure.task for failure in failures] == [tasks[position]]
        assert failures[0].kind == "error" and "no-such-encoder" in failures[0].message
        healthy = [task for index, task in enumerate(tasks) if index != position]
        assert rows == {task.task_hash: run_task(task) for task in healthy}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_merged_pads_equal_the_solo_runs(self, jobs):
        """perfbench's paper-jobs2 ``writes`` are read from this counter."""
        tasks = _lifetime_tasks()
        pads, tasks_run = obs.counter("crypto.pads"), obs.counter("campaign.tasks_run")
        before = pads.value
        for task in tasks:
            run_task(task)
        solo = pads.value - before
        before, before_tasks = pads.value, tasks_run.value
        result = run_campaign(tasks, jobs=jobs)
        assert pads.value - before == solo > 0
        assert tasks_run.value - before_tasks == len(tasks)
        if jobs > 1:
            assert result.telemetry.metrics["crypto.pads"]["value"] == solo

    def test_campaign_failure_names_only_the_broken_cell(self, tmp_path):
        tasks = _lifetime_tasks(benchmarks=("lbm",))
        tasks[2] = _broken(tasks[2])
        with pytest.raises(CampaignFailed) as raised:
            run_campaign(tasks, store=tmp_path, jobs=2)
        assert [failure.task for failure in raised.value.failures] == [tasks[2]]
        resumed = run_campaign([task for task in tasks if task != tasks[2]], store=tmp_path)
        assert resumed.executed == 0
