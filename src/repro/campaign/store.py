"""Content-addressed on-disk store for campaign task results.

Each completed task is written to ``<root>/objects/<h2>/<hash>.json``
where ``hash`` is the task's content address
(:attr:`repro.campaign.spec.Task.task_hash`).  The payload records the
hash, the task's kind and parameters, and its result rows, so a store
is self-describing and can be aggregated or audited without the spec
that produced it.

Writes are atomic (temp file + ``os.replace`` in the same directory), so
a campaign killed mid-write never leaves a half-written object behind;
re-running the campaign simply resumes from the objects that made it to
disk.  Corrupt or mismatched objects are treated as cache misses and
recomputed, never served — and *quarantined*: the bad file is renamed to
``<hash>.corrupt`` in place (counted by ``store.quarantined`` and marked
with a ``store.quarantine`` trace event), so it stops shadowing the slot
its recomputed replacement will occupy and stays on disk for a
post-mortem instead of being silently overwritten.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

import repro.obs as obs
from repro.campaign.spec import Task

__all__ = ["ResultStore"]

_STORE_SCHEMA = 1

_OBS_HITS = obs.counter("store.hits", "store lookups served from a stored object")
_OBS_MISSES = obs.counter("store.misses", "store lookups with no stored object")
_OBS_CORRUPT = obs.counter(
    "store.corrupt", "stored objects rejected as truncated or inconsistent"
)
_OBS_PUTS = obs.counter("store.puts", "task results persisted to the store")
_OBS_PROBES = obs.counter(
    "store.probes", "stat-based existence probes (no rows served, no hit/miss)"
)
_OBS_QUARANTINED = obs.counter(
    "store.quarantined", "corrupt stored objects renamed aside to <hash>.corrupt"
)


class ResultStore:
    """Filesystem-backed map from task hash to result rows."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._objects = self.root / "objects"

    def _path(self, task_hash: str) -> Path:
        return self._objects / task_hash[:2] / f"{task_hash}.json"

    # ------------------------------------------------------------- queries
    def __contains__(self, task: Task) -> bool:
        """Existence probe via a single ``stat`` — no parse, no hit/miss.

        Membership used to answer through :meth:`get`, paying full JSON
        deserialisation and bumping ``store.hits`` for a probe that
        serves no rows.  The fast path keeps the hit/miss counters
        meaning "rows served" (``store.probes`` counts these instead).
        A present-but-corrupt object reports ``True`` here; :meth:`get`
        still treats it as a miss and recomputes.
        """
        _OBS_PROBES.inc()
        return self._path(task.task_hash).is_file()

    def get(self, task: Task) -> Optional[List[Dict[str, Any]]]:
        """Stored rows for ``task``, or ``None`` on a miss."""
        return self.get_by_hash(task.task_hash)

    @obs.timed("store.get_s", "seconds spent looking up stored task results")
    def get_by_hash(self, task_hash: str) -> Optional[List[Dict[str, Any]]]:
        """Stored rows for a task hash, or ``None`` on a miss.

        Unreadable or inconsistent objects (truncated JSON, a payload
        whose recorded hash disagrees with its file name) count as
        misses so one bad object degrades to a recompute, not a crash.
        The two cases are told apart in telemetry (``store.misses`` vs
        ``store.corrupt``) because a corrupt object means lost compute,
        not just a cold cache.  Every corrupt object is quarantined —
        renamed to ``<hash>.corrupt`` next to its slot — so the
        recomputed result can land cleanly and the evidence survives.
        """
        path = self._path(task_hash)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            _OBS_MISSES.inc()
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            self._quarantine(path)
            return None
        if not isinstance(payload, dict) or payload.get("task_hash") != task_hash:
            self._quarantine(path)
            return None
        rows = payload.get("rows")
        if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
            self._quarantine(path)
            return None
        _OBS_HITS.inc()
        return rows

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt object aside as ``<hash>.corrupt`` (best effort).

        The rename is atomic within the shard directory; a filesystem
        that refuses it (read-only store, raced deletion) degrades to
        the old leave-in-place behaviour rather than failing the lookup.
        """
        _OBS_CORRUPT.inc()
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            return
        _OBS_QUARANTINED.inc()
        now = obs.monotonic()
        obs.emit_span("store.quarantine", now, now, object=path.stem)

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_hashes())

    def iter_hashes(self) -> Iterator[str]:
        """All task hashes currently stored."""
        if not self._objects.is_dir():
            return
        for shard in sorted(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                yield entry.stem

    # ------------------------------------------------------------- updates
    @obs.timed("store.put_s", "seconds spent persisting task results")
    def put(self, task: Task, rows: List[Dict[str, Any]]) -> Path:
        """Atomically persist the rows of one completed task."""
        _OBS_PUTS.inc()
        path = self._path(task.task_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "schema": _STORE_SCHEMA,
                "task_hash": task.task_hash,
                "kind": task.kind,
                "params": task.params,
                "rows": rows,
            },
            indent=2,
            default=float,
        )
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=path.parent,
            prefix=f".{task.task_hash[:10]}-",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(payload)
            os.replace(handle.name, path)
        # repro: allow[API001] reason=the orphaned temp file must be unlinked on any failure, including KeyboardInterrupt/SystemExit, before re-raising unchanged
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path
