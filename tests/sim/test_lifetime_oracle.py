"""simulate_lifetime against a scalar write_line loop (the lifetime oracle).

The lifetime cells run through the batched replay engine: out-of-order
waves, an early-stop predicate that retires writes in trace order, and
squashes of the writes that ran ahead of the stop.  Whatever the engine
does, a cell's writes-to-failure and censored flag must equal those of
the plain loop that writes one line at a time and applies the same
failure predicate after every write.
"""

import dataclasses

import pytest

from repro.pcm.endurance import EnduranceModel
from repro.sim.harness import build_controller
from repro.sim.lifetime_sim import (
    DEFAULT_LIFETIME_TECHNIQUES,
    LifetimeOutcome,
    LifetimeStudyConfig,
    _row_failure,
    simulate_lifetime,
)
from repro.traces.synthetic import generate_trace
from repro.utils.rng import derive_seed

#: Small memory, short endurance and trace, 32 cosets: each cell fails
#: within a few hundred writes, and the cap censors the longest-lived ones.
_SMALL = LifetimeStudyConfig(
    rows=16,
    mean_endurance_writes=20,
    trace_writebacks=60,
    max_line_writes=480,
    seed=5,
)


def _scalar_lifetime(spec, benchmark, config) -> LifetimeOutcome:
    """The write_line loop simulate_lifetime replaces, seeded identically."""
    seed = derive_seed(config.seed, f"lifetime-{benchmark}")
    controller = build_controller(
        spec,
        rows=config.rows,
        technology=config.technology,
        word_bits=config.word_bits,
        line_bits=config.line_bits,
        endurance_model=EnduranceModel(
            mean_writes=config.mean_endurance_writes,
            coefficient_of_variation=config.endurance_cov,
        ),
        seed=seed,
        encrypt=True,
    )
    trace = generate_trace(
        benchmark,
        num_writebacks=config.trace_writebacks,
        memory_lines=config.rows,
        line_bits=config.line_bits,
        word_bits=config.word_bits,
        seed=derive_seed(seed, "trace"),
    )
    failed_rows = set()
    writes = 0
    while writes < config.max_line_writes:
        record = trace[writes % len(trace)]
        result = controller.write_line(record.address, list(record.words))
        writes += 1
        if result.saw_cells and result.row_index not in failed_rows:
            if _row_failure(spec, result.saw_bits_per_word, config.line_bits):
                failed_rows.add(result.row_index)
                if len(failed_rows) >= config.failed_rows_limit:
                    return LifetimeOutcome(writes=writes, censored=False)
    return LifetimeOutcome(writes=writes, censored=True)


@pytest.mark.parametrize("trace_name", ["lbm", "mcf"])
@pytest.mark.parametrize(
    "spec",
    [dataclasses.replace(spec, num_cosets=32) for spec in DEFAULT_LIFETIME_TECHNIQUES],
    ids=lambda spec: spec.display_name(),
)
def test_lifetime_matches_write_line_oracle(spec, trace_name):
    assert simulate_lifetime(spec, trace_name, _SMALL) == _scalar_lifetime(
        spec, trace_name, _SMALL
    )


def test_oracle_geometry_reaches_both_outcomes():
    """The configuration exercises early stops and the censoring cap."""
    outcomes = [
        simulate_lifetime(dataclasses.replace(spec, num_cosets=32), "lbm", _SMALL)
        for spec in DEFAULT_LIFETIME_TECHNIQUES
    ]
    assert any(not outcome.censored for outcome in outcomes)
    assert any(outcome.censored for outcome in outcomes)
