"""Tests for the content-addressed result store."""

import repro.obs as obs
from repro.campaign.spec import Task
from repro.campaign.store import ResultStore


def _task(x=1):
    return Task(kind="demo", params={"x": x})


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        task = _task()
        rows = [{"metric": 1.5, "name": "a"}]
        store.put(task, rows)
        assert store.get(task) == rows
        assert task in store

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get(_task()) is None
        assert _task() not in store

    def test_len_and_iter_hashes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        tasks = [_task(1), _task(2), _task(3)]
        for task in tasks:
            store.put(task, [])
        assert len(store) == 3
        assert set(store.iter_hashes()) == {t.task_hash for t in tasks}

    def test_object_path_is_content_addressed(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        task = _task()
        path = store.put(task, [{"a": 1}])
        assert path.stem == task.task_hash
        assert path.parent.name == task.task_hash[:2]

    def test_corrupt_object_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        task = _task()
        path = store.put(task, [{"a": 1}])
        path.write_text("{truncated", encoding="utf-8")
        assert store.get(task) is None

    def test_hash_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first, second = _task(1), _task(2)
        source = store.put(first, [{"a": 1}])
        target = store._path(second.task_hash)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
        assert store.get(second) is None

    def test_contains_fast_path_skips_hit_miss_counters(self, tmp_path):
        """Membership probes stat the object — no parse, no hits bump.

        ``store.hits`` / ``store.misses`` keep meaning "rows served";
        probes are counted separately under ``store.probes``.
        """
        store = ResultStore(tmp_path / "store")
        present, absent = _task(1), _task(2)
        store.put(present, [{"a": 1}])
        obs.reset_metrics()
        assert present in store
        assert absent not in store
        snapshot = obs.metrics_snapshot()
        assert snapshot["store.probes"]["value"] == 2
        assert "store.hits" not in snapshot
        assert "store.misses" not in snapshot
        # Serving rows still bumps the hit counter.
        assert store.get(present) == [{"a": 1}]
        assert obs.metrics_snapshot()["store.hits"]["value"] == 1
        obs.reset_metrics()

    def test_contains_true_for_corrupt_object_but_get_recomputes(self, tmp_path):
        """A present-but-corrupt object is "in" the store; ``get`` is a miss."""
        store = ResultStore(tmp_path / "store")
        task = _task()
        path = store.put(task, [{"a": 1}])
        path.write_text("{truncated", encoding="utf-8")
        assert task in store
        assert store.get(task) is None

    def test_put_overwrites_atomically(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        task = _task()
        store.put(task, [{"v": 1}])
        store.put(task, [{"v": 2}])
        assert store.get(task) == [{"v": 2}]
        # No temp files left behind.
        leftovers = [p for p in (tmp_path / "store").rglob("*.tmp")]
        assert leftovers == []
