"""Tests for campaign tasks and sweep specifications."""

import numpy as np
import pytest

from repro.campaign.spec import SweepSpec, Task
from repro.errors import ConfigurationError


class TestTask:
    def test_hash_is_stable_across_param_order(self):
        a = Task(kind="k", params={"x": 1, "y": 2})
        b = Task(kind="k", params={"y": 2, "x": 1})
        assert a.task_hash == b.task_hash
        assert a == b

    def test_hash_differs_for_different_params(self):
        a = Task(kind="k", params={"x": 1})
        b = Task(kind="k", params={"x": 2})
        c = Task(kind="other", params={"x": 1})
        assert len({a.task_hash, b.task_hash, c.task_hash}) == 3

    def test_tuples_normalise_to_lists(self):
        a = Task(kind="k", params={"xs": (1, 2, 3)})
        b = Task(kind="k", params={"xs": [1, 2, 3]})
        assert a == b
        assert a.params["xs"] == [1, 2, 3]

    def test_numpy_scalars_normalise(self):
        a = Task(kind="k", params={"n": np.int64(7), "f": np.float64(0.5)})
        b = Task(kind="k", params={"n": 7, "f": 0.5})
        assert a == b

    def test_unserialisable_param_rejected(self):
        with pytest.raises(ConfigurationError):
            Task(kind="k", params={"obj": object()})

    def test_non_string_key_rejected(self):
        with pytest.raises(ConfigurationError):
            Task(kind="k", params={"nested": {1: "x"}})

    def test_empty_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Task(kind="", params={})

    def test_usable_in_sets(self):
        tasks = {Task(kind="k", params={"x": 1}), Task(kind="k", params={"x": 1})}
        assert len(tasks) == 1

    def test_describe_mentions_kind_and_hash_prefix(self):
        task = Task(kind="demo", params={"benchmark": "lbm"})
        text = task.describe()
        assert "demo" in text and "lbm" in text and task.task_hash[:10] in text
        # Encoder and corrector hints tell cells of one encoder apart; an
        # unset corrector is left out.
        plain = Task(kind="demo", params={"encoder": "unencoded", "corrector": None})
        secded = Task(kind="demo", params={"encoder": "unencoded", "corrector": "secded"})
        assert "(unencoded)" in plain.describe()
        assert "(unencoded, secded)" in secded.describe()


class TestSweepSpec:
    def test_expand_is_the_cross_product_in_axis_order(self):
        spec = SweepSpec(
            kind="k",
            base={"fixed": 1},
            grid={"a": [1, 2], "b": ["x", "y"]},
        )
        tasks = spec.expand()
        assert [(t.params["a"], t.params["b"]) for t in tasks] == [
            (1, "x"), (1, "y"), (2, "x"), (2, "y"),
        ]
        assert all(t.params["fixed"] == 1 for t in tasks)

    def test_seeds_are_a_trailing_axis(self):
        spec = SweepSpec(kind="k", grid={"a": [1]}, seeds=(10, 11))
        assert [t.params["seed"] for t in spec.expand()] == [10, 11]

    def test_axis_colliding_with_base_rejected(self):
        spec = SweepSpec(kind="k", base={"a": 0}, grid={"a": [1]})
        with pytest.raises(ConfigurationError):
            spec.expand()

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="k", grid={"a": []}).expand()

    def test_duplicate_tasks_deduplicated(self):
        spec = SweepSpec(kind="k", grid={"a": [1, 1]})
        assert len(spec.expand()) == 1
