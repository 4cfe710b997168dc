"""Running sweeps in parallel with the campaign engine.

This walks the campaign subsystem end to end:

1. declare a sweep grid over technique fields, benchmarks, and seeds
   with :class:`~repro.campaign.SweepSpec`;
2. run it with worker processes and a content-addressed result store
   (:func:`~repro.campaign.run_campaign`);
3. re-run it to show every task coming back from the cache;
4. regenerate a paper figure (Fig. 10) through the same engine via its
   entry in the experiment table.

Run with ``python examples/campaign_sweep.py``.  The command line for
step 4 is::

    python -m repro.experiments.runner fig10 --jobs 2 --store-dir .campaign-store \
        --set benchmarks=lbm,mcf --set num_cosets=32 \
        --set writebacks_per_benchmark=40 --set rows=64
"""

from __future__ import annotations

import tempfile

from repro.campaign import SweepSpec, run_campaign
from repro.experiments import run_experiment


def main() -> None:
    # A grid over the Fig. 10 cell kind: 2 benchmarks x 2 series x 2
    # seeds = 8 independent tasks.  Every task carries its own seed, so
    # the rows are bit-identical no matter how many workers run them.
    spec = SweepSpec(
        kind="fig10-saw-cell",
        base={
            "writebacks": 40,
            "rows": 64,
            "word_bits": 64,
            "line_bits": 512,
            "technology": "mlc",
            "fault_rate": 1e-2,
            "num_cosets": 32,
        },
        grid={"benchmark": ["lbm", "mcf"], "series": ["unencoded", "vcc"]},
        seeds=(7, 8),
    )
    tasks = spec.expand()
    print(f"sweep expands to {len(tasks)} tasks, e.g. {tasks[0].describe()}")

    with tempfile.TemporaryDirectory(prefix="campaign-example-") as store_dir:
        result = run_campaign(spec, store=store_dir, jobs=2)
        print(f"first run : {result.executed} executed, {result.cached} from cache")
        for row, task in zip(result.rows(), tasks):
            print(f"  seed {task.params['seed']}: {row}")

        # Same spec, same store: nothing executes, the rows come back
        # identically — this is also how an interrupted campaign resumes.
        again = run_campaign(spec, store=store_dir, jobs=2)
        print(f"second run: {again.executed} executed, {again.cached} from cache")
        assert again.rows() == result.rows()

        # The paper's benchmark sweeps go through the same engine; the
        # rows are bit-identical to a serial run for any jobs count.
        table = run_experiment(
            "fig10",
            benchmarks=("lbm", "mcf"),
            num_cosets=32,
            writebacks_per_benchmark=40,
            rows=64,
            jobs=2,
            store_dir=store_dir,
        )
        print()
        print(table.format())


if __name__ == "__main__":
    main()
