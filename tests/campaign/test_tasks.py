"""Tests for the task-kind registry."""

import pytest

from repro.campaign.spec import Task
from repro.campaign.tasks import (
    available_task_kinds,
    get_task_kind,
    register_task,
    run_task,
    unregister_task,
)
from repro.errors import ConfigurationError, SimulationError


class TestRegistry:
    def test_builtin_kinds_registered(self):
        names = {kind.name for kind in available_task_kinds()}
        assert {
            "fig1-analysis-cell",
            "fig2-masking-cell",
            "fig7-energy-cell",
            "fig8-saw-cell",
            "fig9-energy-cell",
            "fig10-saw-cell",
            "lifetime-cell",
            "fig13-ipc-cell",
        } <= names

    def test_unknown_kind_lists_available(self):
        with pytest.raises(ConfigurationError, match="fig9-energy-cell"):
            get_task_kind("no-such-kind")

    def test_register_and_unregister(self):
        @register_task("test-double", description="doubles x")
        def _double(params):
            return [{"doubled": params["x"] * 2}]

        try:
            assert run_task(Task(kind="test-double", params={"x": 21})) == [{"doubled": 42}]
            assert get_task_kind("TEST-DOUBLE").name == "test-double"
        finally:
            unregister_task("test-double")
        with pytest.raises(ConfigurationError):
            get_task_kind("test-double")

    def test_duplicate_registration_rejected(self):
        @register_task("test-once")
        def _once(params):
            return []

        try:
            with pytest.raises(ConfigurationError):
                register_task("test-once")(lambda params: [])
        finally:
            unregister_task("test-once")

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            unregister_task("never-registered")

    def test_non_list_return_rejected(self):
        @register_task("test-bad-return")
        def _bad(params):
            return {"not": "a list"}

        try:
            with pytest.raises(SimulationError):
                run_task(Task(kind="test-bad-return", params={}))
        finally:
            unregister_task("test-bad-return")

    def test_unserialisable_row_rejected(self):
        @register_task("test-bad-row")
        def _bad(params):
            return [{"obj": object()}]

        try:
            with pytest.raises(ConfigurationError):
                run_task(Task(kind="test-bad-row", params={}))
        finally:
            unregister_task("test-bad-row")
