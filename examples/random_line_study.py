"""Random-line study: the batched driver behind Figs. 2, 7, and 8.

Drives uniformly random encrypted lines through the full memory
controller with ``MemoryController.write_random_lines`` — the batched
sibling of a ``write_line`` loop, bit-identical in accounting but several
times faster on the unencoded baseline — and then runs the Fig. 7
sweep through the campaign engine with two workers and a result store
(re-running the script resumes every cell from cache).

Run with ``python examples/random_line_study.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import obs
from repro.experiments import run_experiment
from repro.sim.harness import TechniqueSpec, build_controller
from repro.utils.rng import make_rng


def batched_driver_demo() -> None:
    """One controller, ten thousand random lines, one batched call."""
    controller = build_controller(
        TechniqueSpec(encoder="unencoded", cost="energy", label="Unencoded"),
        rows=128,
        seed=2022,
    )
    start = obs.monotonic()
    replay = controller.write_random_lines(10_000, make_rng(2022, "random-lines"))
    elapsed = obs.monotonic() - start
    stats = replay.write_stats()
    print(
        f"wrote {replay.writes} random lines in {elapsed:.2f}s "
        f"({replay.writes / elapsed:.0f} lines/s)"
    )
    print(
        f"  energy {stats.total_energy_pj / 1e6:.3f} uJ, "
        f"bits changed {stats.bits_changed}, SAW cells {stats.saw_cells}\n"
    )


def fig7_campaign_demo(store: Path) -> None:
    """The Fig. 7 sweep as a two-worker campaign with cached resume."""
    for attempt in ("first run (executes every cell)", "second run (all from cache)"):
        start = obs.monotonic()
        table = run_experiment("fig7", num_writes=150, jobs=2, store_dir=store)
        print(f"{attempt}: {obs.monotonic() - start:.2f}s")
    print()
    print(table.format())


def main() -> None:
    batched_driver_demo()
    with tempfile.TemporaryDirectory() as tmp:
        fig7_campaign_demo(Path(tmp) / "store")


if __name__ == "__main__":
    main()
