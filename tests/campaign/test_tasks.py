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


def _params_and_extra(params, extra=None):
    return []


def _varargs(*params):
    return []


def _kwargs(params, **extra):
    return []


def _keyword_only(params, *, extra=None):
    return []


def _no_params():
    return []


class TestRegistrationChecks:
    """A task kind that breaks the executor's calling contract fails when
    the decorator runs, and nothing is registered."""

    @pytest.mark.parametrize("name", [None, 7, b"fig9", ""], ids=repr)
    def test_name_must_be_a_non_empty_str(self, name):
        with pytest.raises(ConfigurationError, match="non-empty str"):
            register_task(name)

    def test_bare_decoration_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty str"):
            register_task(_no_params)

    @pytest.mark.parametrize(
        "function", [_params_and_extra, _varargs, _kwargs, _keyword_only, _no_params],
        ids=lambda function: function.__name__,
    )
    def test_function_must_take_one_positional_param(self, function):
        with pytest.raises(ConfigurationError, match="exactly one positional"):
            register_task("test-bad-signature")(function)
        assert "test-bad-signature" not in {kind.name for kind in available_task_kinds()}

    def test_duplicate_with_bad_signature_keeps_the_registered_kind(self):
        original = get_task_kind("fig7-energy-cell")
        with pytest.raises(ConfigurationError, match="exactly one positional"):
            register_task("fig7-energy-cell")(_varargs)
        assert get_task_kind("fig7-energy-cell") is original

    @pytest.mark.parametrize(
        "function",
        [
            lambda params: [],
            lambda params, /: [],
            lambda params=None: [],
        ],
        ids=["positional-or-keyword", "positional-only", "defaulted"],
    )
    def test_single_positional_param_accepted(self, function):
        register_task("test-good-signature")(function)
        try:
            assert get_task_kind("test-good-signature").function is function
        finally:
            unregister_task("test-good-signature")

    @pytest.mark.parametrize("name", sorted(kind.name for kind in available_task_kinds()))
    def test_builtin_kind_passes_the_checks(self, name):
        """Every builtin kind re-registers cleanly under a fresh name."""
        register_task(f"test-copy-{name}")(get_task_kind(name).function)
        unregister_task(f"test-copy-{name}")
