"""A batch callable the pool cannot pickle fails the sweep, fast.

The pool pickles each batch in a feeder thread.  When that fails, the
sweep must raise the pickling error and discard the pool, never wait on
it, and leave no worker alive.  Each check runs in a child interpreter
under a timeout, so a sweep that hangs fails here instead of hanging
the suite.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
#: Host seconds a child interpreter may take for all of its sweeps.
BOUND_S = 120

#: Swaps an unpicklable stand-in (a lambda) in for the batch callable
#: that ``ProcessExecutor.run`` submits.
UNPICKLABLE = textwrap.dedent(
    """
    import multiprocessing, sys
    import repro.campaign.executor as executor
    from repro.campaign.spec import SweepSpec

    original = executor._execute_batch
    executor._execute_batch = lambda batch: original(batch)
    tasks = SweepSpec(
        kind="fig7-energy-cell",
        base={"rows": 24, "word_bits": 64, "line_bits": 512, "num_writes": 20,
              "technology": "mlc", "encoder": "rcc", "cost": "energy-then-saw",
              "label": "RCC"},
        grid={"cosets": [4, 8]},
        seeds=(3, 4),
    ).expand()
    """
)

SWEEPS = UNPICKLABLE + textwrap.dedent(
    """
    import os

    def refuse(*args):
        raise AssertionError("no batch can reach a worker")

    def running(pid):
        # multiprocessing may still list a worker another thread has just
        # reaped, so ask the kernel; an unreaped zombie is not running.
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        try:
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rpartition(")")[2].split()[0] != "Z"
        except FileNotFoundError:
            return not os.path.isdir("/proc")

    for repetition in range(20):
        sweep = executor.ProcessExecutor(2, start_method=sys.argv[1])
        try:
            sweep.run(tasks, refuse, refuse)
        except Exception as error:
            assert "pickle" in str(error), repr(error)
        else:
            raise AssertionError(f"sweep {repetition} did not raise")
        alive = [child for child in multiprocessing.active_children() if running(child.pid)]
        assert not alive, f"sweep {repetition} left workers alive: {alive}"
    print("20 sweeps raised")
    """
)


def _child(script, *args):
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=BOUND_S,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_every_sweep_raises_and_leaves_no_worker(start_method):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {start_method!r} is unavailable here")
    completed = _child(SWEEPS, start_method)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "20 sweeps raised"


def test_runner_reports_a_pool_error_with_its_traceback():
    """A pool-level error is not a library error: no one-line exit 2."""
    runner = UNPICKLABLE + textwrap.dedent(
        """
        from repro.experiments.runner import main
        sys.exit(main(["fig7", "--jobs", "2", "--set", "coset_counts=32",
                       "--set", "rows=24", "--set", "num_writes=20"]))
        """
    )
    completed = _child(runner)
    assert completed.returncode == 1
    assert "Traceback" in completed.stderr and "pickle" in completed.stderr
    assert not [line for line in completed.stderr.splitlines() if line.startswith("error:")]
