"""Fault-model zoo contracts: legacy parity, determinism, disabled cost.

Three gates, all enforced inline by ``main()`` (and by the pytest entry
points) so a silently skipped check cannot pass:

* **Legacy parity** — a replay built with ``fault_model=None`` and one
  built with the explicit ``"static-stuck-at"`` name must account every
  write bit-identically: the zoo's default model *is* the historical
  generator, merely relocated, and every published figure depends on
  that.
* **Determinism** — the same replay under each registered builtin model
  twice must match itself bit for bit; the dynamic models (transient
  sensing, wear drift) draw only from seeded RNG labels.
* **Disabled overhead** — a ``fault_model=None`` replay is timed against
  the pre-zoo workload shape; the model hook must cost nothing when no
  model is armed.  Reported informationally (shared runners drift); the
  hard gates are the two parity checks above.

Run directly for a table::

    PYTHONPATH=src python benchmarks/bench_fault_models.py

or under pytest to enforce the parity gates::

    PYTHONPATH=src python -m pytest benchmarks/bench_fault_models.py -q
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro import obs
from repro.faults import available_fault_models
from repro.pcm.faultmap import FaultMap
from repro.sim.harness import TechniqueSpec, build_controller, cached_trace
from repro.utils.rng import derive_seed

ROWS = 48
WRITEBACKS = 240
SEED = derive_seed(7, "bench-fault-models")
#: Timed replay repetitions for the (informational) disabled-cost check.
TIMING_RUNS = 3


def _replay(fault_model: Optional[str], corrector: Optional[str] = None):
    """One fixed lbm replay under the named fault model."""
    trace = cached_trace("lbm", WRITEBACKS, ROWS, 512, 64, derive_seed(SEED, "trace"))
    # The map's stuck-at snapshot comes from the model under test, so the
    # snapshot-reshaping models (row-correlated) actually reshape it and
    # the dynamic models (transient, wear-drift) start from a clean array.
    fault_map = FaultMap(
        rows=ROWS, cells_per_row=256, seed=SEED, model=fault_model or "static-stuck-at"
    )
    controller = build_controller(
        TechniqueSpec(
            encoder="rcc",
            cost="energy-then-saw",
            num_cosets=16,
            corrector=corrector,
            fault_model=fault_model,
        ),
        rows=ROWS,
        fault_map=fault_map,
        seed=SEED,
    )
    return controller.replay_trace(trace)


def _signature(replay) -> Dict[str, float]:
    """The per-write accounting collapsed to exact sums (energy from int fJ)."""
    stats = replay.write_stats()
    return {
        "writes": int(replay.writes),
        "data_energy_pj": stats.data_energy_pj,
        "aux_energy_pj": stats.aux_energy_pj,
        "bits_changed": stats.bits_changed,
        "saw_cells": stats.saw_cells,
    }


def test_none_matches_static_stuck_at() -> None:
    """``fault_model=None`` and ``"static-stuck-at"`` are the same machine."""
    assert _signature(_replay(None)) == _signature(_replay("static-stuck-at"))


def test_every_builtin_model_is_deterministic() -> None:
    for model_class in available_fault_models():
        name = model_class.name
        corrector = "ecp3" if name == "transient" else None
        first = _signature(_replay(name, corrector))
        second = _signature(_replay(name, corrector))
        assert first == second, f"{name} replay not reproducible"
        assert first["writes"] == WRITEBACKS


def _time_replay(fault_model: Optional[str]) -> float:
    best = float("inf")
    for _ in range(TIMING_RUNS):
        start = obs.monotonic()
        _replay(fault_model)
        best = min(best, obs.monotonic() - start)
    return best


def main() -> None:
    from bench_util import write_bench_json

    test_none_matches_static_stuck_at()
    print("parity: fault_model=None vs 'static-stuck-at' accounting OK")

    signatures: Dict[str, Dict[str, float]] = {}
    for model_class in available_fault_models():
        name = model_class.name
        corrector = "ecp3" if name == "transient" else None
        first = _signature(_replay(name, corrector))
        assert first == _signature(_replay(name, corrector))
        signatures[name] = first
        print(
            f"  {name:<16} energy={first['data_energy_pj'] + first['aux_energy_pj']:>12.1f}pJ"
            f" saw-cells={first['saw_cells']:>6d} (reproducible)"
        )
    print(f"determinism: {len(signatures)} builtin models replay bit-identically")

    none_s = _time_replay(None)
    static_s = _time_replay("static-stuck-at")
    overhead: Tuple[float, float] = (none_s, static_s)
    print(
        f"disabled cost (informational): no-model {none_s * 1e3:.1f}ms,"
        f" static-stuck-at {static_s * 1e3:.1f}ms"
    )

    write_bench_json(
        "fault_models",
        config={"rows": ROWS, "writebacks": WRITEBACKS, "seed": SEED},
        results={
            "signatures": signatures,
            "no_model_s": overhead[0],
            "static_stuck_at_s": overhead[1],
        },
    )


if __name__ == "__main__":
    main()
