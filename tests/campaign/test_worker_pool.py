"""One warm worker pool per process.

Successive ``jobs>1`` campaigns run on the same pool while nothing a
worker inherits at start-up has changed.  Replacing a task kind,
registering an encoder or enabling tracing between two campaigns forks a
fresh pool that sees the change.  No worker outlives its coordinator,
whether the coordinator exits normally, with ``os._exit`` or by
``SIGKILL`` between sweeps.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import obs
from repro.campaign.engine import run_campaign
from repro.campaign.spec import SweepSpec, Task
from repro.campaign.tasks import register_task, unregister_task
from repro.coding.registry import (
    available_encoders,
    make_encoder,
    register_encoder,
    unregister_encoder,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required",
)

SRC = Path(__file__).resolve().parents[2] / "src"
PROBE = "test-worker-pool-probe"
ENCODER = "test-worker-pool-encoder"
#: Seconds an orphaned worker may take to notice that its coordinator is gone.
ORPHAN_BOUND_S = 10.0


def _fig7_tasks():
    return SweepSpec(
        kind="fig7-energy-cell",
        base={
            "rows": 32,
            "word_bits": 64,
            "line_bits": 512,
            "num_writes": 30,
            "technology": "mlc",
            "encoder": "rcc",
            "cost": "energy-then-saw",
            "label": "RCC",
        },
        grid={"cosets": [4, 8]},
        seeds=(3, 4),
    ).expand()


def _probe_row(params, version):
    return [
        {
            "cell": params["cell"],
            "pid": os.getpid(),
            "version": version,
            "encoder": ENCODER in available_encoders(),
            "traced": obs.tracing_enabled(),
        }
    ]


def _probe_v1(params):
    return _probe_row(params, 1)


def _probe_v2(params):
    return _probe_row(params, 2)


def _encoder_factory(word_bits, num_cosets, technology, cost_function, seed):
    return make_encoder("unencoded", word_bits=word_bits, technology=technology)


def _pool_pids():
    """The live worker processes of this process's pool."""
    return sorted(child.pid for child in multiprocessing.active_children())


@pytest.fixture
def probe():
    register_task(PROBE)(_probe_v1)
    try:
        yield [Task(kind=PROBE, params={"cell": cell}) for cell in range(8)]
    finally:
        unregister_task(PROBE)


def test_successive_campaigns_share_one_pool(probe):
    tasks = _fig7_tasks()
    serial = run_campaign(tasks, jobs=1).rows()
    first = run_campaign(tasks + probe, jobs=2).rows()
    pids = _pool_pids()
    second = run_campaign(tasks + probe, jobs=2).rows()
    assert len(pids) == 2
    assert _pool_pids() == pids
    for rows in (first, second):
        assert rows[: len(serial)] == serial
        assert {row["pid"] for row in rows[len(serial):]} <= set(pids)


def _replace_kind(tmp_path):
    unregister_task(PROBE)
    register_task(PROBE)(_probe_v2)
    return lambda: None  # the probe fixture unregisters the kind


def _register_encoder(tmp_path):
    register_encoder(ENCODER)(_encoder_factory)
    return lambda: unregister_encoder(ENCODER)


def _enable_tracing(tmp_path):
    obs.enable_tracing(str(tmp_path / "trace.jsonl"))
    return obs.disable_tracing


@pytest.mark.parametrize(
    "change, field, before, after",
    [
        (_replace_kind, "version", 1, 2),
        (_register_encoder, "encoder", False, True),
        (_enable_tracing, "traced", False, True),
    ],
    ids=["task-kind", "encoder", "tracing"],
)
def test_a_changed_registry_or_trace_forks_a_fresh_pool(
    probe, tmp_path, change, field, before, after
):
    old = run_campaign(probe, jobs=2).rows()
    old_pids = _pool_pids()
    undo = change(tmp_path)
    try:
        new = run_campaign(probe, jobs=2).rows()
        new_pids = _pool_pids()
    finally:
        undo()
    assert [row[field] for row in old] == [before] * len(probe)
    assert [row[field] for row in new] == [after] * len(probe)
    assert len(new_pids) == 2 and not set(new_pids) & set(old_pids)
    assert {row["pid"] for row in new} <= set(new_pids)


#: A coordinator that runs one jobs=2 sweep, prints its pool's worker
#: pids, then ends as ``sys.argv[1]`` says (or waits to be killed).
COORDINATOR = textwrap.dedent(
    """
    import multiprocessing, os, sys, time
    from repro.campaign.engine import run_campaign
    from repro.campaign.spec import SweepSpec

    tasks = SweepSpec(
        kind="fig7-energy-cell",
        base={"rows": 24, "word_bits": 64, "line_bits": 512, "num_writes": 20,
              "technology": "mlc", "encoder": "rcc", "cost": "energy-then-saw",
              "label": "RCC"},
        grid={"cosets": [4, 8]},
        seeds=(3, 4),
    ).expand()
    run_campaign(tasks, jobs=2)
    print(" ".join(str(child.pid) for child in multiprocessing.active_children()), flush=True)
    if sys.argv[1] == "os._exit":
        os._exit(0)
    if sys.argv[1] == "SIGKILL":
        time.sleep(120)
    """
)


def _alive(pid):
    """True while ``pid`` runs; a zombie nobody has reaped yet is not running."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return not Path("/proc").is_dir()
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.parametrize("end", ["exit", "os._exit", "SIGKILL"])
def test_no_worker_outlives_its_coordinator(end):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    coordinator = subprocess.Popen(
        [sys.executable, "-c", COORDINATOR, end], stdout=subprocess.PIPE, text=True, env=env
    )
    pids = []
    try:
        pids = [int(pid) for pid in coordinator.stdout.readline().split()]
        if end == "SIGKILL":
            coordinator.kill()
        assert coordinator.wait(timeout=120) == (-signal.SIGKILL if end == "SIGKILL" else 0)
        assert len(pids) == 2
        if end == "exit":
            # The interpreter joins the pool before it exits.
            assert not [pid for pid in pids if _alive(pid)]
        deadline = time.monotonic() + ORPHAN_BOUND_S
        while [pid for pid in pids if _alive(pid)] and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _alive(pid)], f"workers outlived {end}"
    finally:
        if coordinator.poll() is None:
            coordinator.kill()
            coordinator.wait()
        for pid in pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
