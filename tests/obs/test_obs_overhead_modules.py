"""The disabled-telemetry benchmark swaps the handles of every replay module.

``benchmarks/bench_obs_overhead.py`` measures the cost of the ``_OBS_*``
handles by swapping them for no-op stand-ins in the modules its
``_instrumented_modules()`` lists.  A replay-path module that binds a
handle but is missing from that list keeps its real handles on both
sides of the comparison, so its cost would go unmeasured.  This test runs
a stacked lifetime replay over every default lifetime technique (and the
benchmark's own replay) under a profiling hook and checks that each
``repro`` module it executed that binds an ``_OBS_*`` handle is listed.
"""

import importlib.util
import sys
from pathlib import Path

from repro.sim.lifetime_sim import (
    DEFAULT_LIFETIME_TECHNIQUES,
    LifetimeStudyConfig,
    simulate_lifetimes,
)

_BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_obs_overhead.py"


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench_obs_overhead", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _executed_modules(run) -> set:
    """Names of the modules whose Python functions ``run()`` called."""
    names = set()

    def hook(frame, event, arg):
        if event == "call":
            names.add(frame.f_globals.get("__name__"))

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return names


def _binds_handles(name: str) -> bool:
    module = sys.modules.get(name)
    return module is not None and any(attr.startswith("_OBS_") for attr in vars(module))


def test_every_replay_module_with_handles_is_instrumented():
    bench = _bench_module()
    config = LifetimeStudyConfig(rows=16, mean_endurance_writes=20, trace_writebacks=60,
                                 max_line_writes=300)

    def run():
        simulate_lifetimes(DEFAULT_LIFETIME_TECHNIQUES, "lbm", config)
        bench._replay_once()

    executed = {
        name for name in _executed_modules(run)
        if name and name.startswith("repro.") and _binds_handles(name)
    }
    listed = {module.__name__ for module in bench._instrumented_modules()}
    assert "repro.memctrl.controller" in executed
    assert executed <= listed, f"not instrumented: {sorted(executed - listed)}"
