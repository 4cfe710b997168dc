"""A task kind that reads module state it advances gives rows that differ
across ``jobs``, so the serial-vs-parallel row comparison catches it.

Rows must be a pure function of task params.  A kind that counts its
calls in a module global, or draws from a module-level generator, breaks
that: each forked worker advances its own copy of the state.  The
figure-sweep determinism gate (``test_figure_sweeps.py``) compares every
sweep's rows at ``jobs=1`` and ``jobs>1``; these tests pin that the
comparison sees both hazards.  The serial run goes first, so the workers
fork from a coordinator whose state it has already advanced: every
worker row then differs from its serial counterpart, whatever the
scheduling.
"""

import multiprocessing

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.spec import Task
from repro.campaign.tasks import register_task, unregister_task
from repro.utils.rng import make_rng

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required",
)

_CALLS = 0
_SHARED_RNG = make_rng(0, "test-worker-state")


def _count_calls(params):
    global _CALLS
    _CALLS += 1
    return [{"cell": params["cell"], "value": _CALLS}]


def _draw_shared(params):
    return [{"cell": params["cell"], "value": int(_SHARED_RNG.integers(0, 2**62))}]


@pytest.fixture(params=[_count_calls, _draw_shared], ids=["global-counter", "module-rng"])
def stateful_kind(request):
    name = f"test-worker-state-{request.node.callspec.id}"
    register_task(name)(request.param)
    try:
        yield name
    finally:
        unregister_task(name)


def test_serial_and_parallel_rows_differ(stateful_kind):
    tasks = [Task(kind=stateful_kind, params={"cell": cell}) for cell in range(8)]
    serial = run_campaign(tasks, jobs=1).rows()
    parallel = run_campaign(tasks, jobs=2).rows()
    assert [row["cell"] for row in parallel] == [row["cell"] for row in serial]
    assert all(ours != theirs for ours, theirs in zip(serial, parallel))
