"""Micro-benchmark: line-encoding throughput, scalar vs. batched path.

Measures lines/second for every registry encoder through the two
implementations of the line API:

* **scalar** — :meth:`Encoder.encode_line_scalar` per line, the
  word-at-a-time reference oracle;
* **batch** — :meth:`Encoder.encode_lines` over one
  :class:`~repro.coding.base.LineBatch` of ``CHUNK_LINES`` lines, the
  call the memory controller's replay waves make.

Run directly for a table::

    PYTHONPATH=src python benchmarks/bench_encode_throughput.py

or under pytest to enforce the speedup floor the coset techniques must
keep (``vcc`` and ``rcc`` at least 3x)::

    PYTHONPATH=src python -m pytest benchmarks/bench_encode_throughput.py -q
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro import obs
from repro.coding.base import LineBatch, LineContext
from repro.coding.cost import energy_then_saw
from repro.coding.registry import encoder_plugins, make_encoder
from repro.utils.bitops import random_word
from repro.utils.rng import make_rng

WORDS_PER_LINE = 8
WORD_BITS = 64
NUM_COSETS = 256
#: Lines per timed chunk (one encode_lines call on the batch path).
CHUNK_LINES = 16
#: Speedup floor enforced for the paper's coset techniques (the hot path
#: of Figs. 7-13); the other baselines are reported for tracking only.
SPEEDUP_FLOORS = {"vcc": 3.0, "rcc": 3.0}


def _setup(name: str, seed: int = 3):
    encoder = make_encoder(
        name, num_cosets=NUM_COSETS, cost_function=energy_then_saw(), seed=seed
    )
    rng = make_rng(seed, f"throughput-{name}")
    cells = encoder.cells_per_word
    context = LineContext(
        old_cells=rng.integers(0, 4, size=(WORDS_PER_LINE, cells)).astype(np.uint8),
        stuck_mask=rng.random((WORDS_PER_LINE, cells)) < 0.01,
        bits_per_cell=encoder.bits_per_cell,
    )
    lines = [
        [random_word(rng, WORD_BITS) for _ in range(WORDS_PER_LINE)]
        for _ in range(CHUNK_LINES)
    ]
    return encoder, context, lines


def _one_trial(encode_chunk: Callable[[], object], min_seconds: float) -> float:
    encoded = 0
    start = obs.monotonic()
    while True:
        encode_chunk()
        encoded += CHUNK_LINES
        elapsed = obs.monotonic() - start
        if elapsed >= min_seconds:
            return encoded / elapsed


def measure(name: str, min_seconds: float = 0.1, trials: int = 3) -> Tuple[float, float]:
    """Return (scalar lines/s, batch lines/s) for one registry encoder.

    Scalar and batch trials are interleaved and the best of each is kept,
    so CPU frequency drift and scheduler noise hit both paths alike.
    """
    encoder, context, lines = _setup(name)
    line_batch = LineBatch.from_lines([context] * len(lines))

    def scalar_chunk() -> None:
        for words in lines:
            encoder.encode_line_scalar(words, context)

    def batch_chunk() -> None:
        encoder.encode_lines(lines, line_batch)

    # Warm up allocators/caches before timing anything.
    scalar_chunk()
    batch_chunk()
    scalar = 0.0
    batch = 0.0
    for _ in range(trials):
        scalar = max(scalar, _one_trial(scalar_chunk, min_seconds))
        batch = max(batch, _one_trial(batch_chunk, min_seconds))
    return scalar, batch


def run_all() -> Dict[str, Tuple[float, float]]:
    """Measure every canonical registry encoder; returns name -> (scalar, batch)."""
    return {plugin.name: measure(plugin.name) for plugin in encoder_plugins()}


def test_batched_path_speedup() -> None:
    """The batched path must stay >= 3x the scalar path for vcc and rcc."""
    for name, floor in SPEEDUP_FLOORS.items():
        best = 0.0
        for _attempt in range(3):  # re-measure to shrug off scheduler noise
            scalar, batch = measure(name)
            best = max(best, batch / scalar)
            if best >= floor:
                break
        assert best >= floor, (
            f"{name}: batched path is only {best:.2f}x the scalar path "
            f"({batch:.0f} vs {scalar:.0f} lines/s); floor is {floor}x"
        )


def main() -> None:
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_util import write_bench_json

    print(f"line-encoding throughput ({NUM_COSETS} cosets, energy-then-saw, "
          f"{WORDS_PER_LINE}x{WORD_BITS}-bit lines)\n")
    print(f"{'encoder':<12} {'scalar lines/s':>15} {'batch lines/s':>15} {'speedup':>9}")
    results = {}
    for name, (scalar, batch) in run_all().items():
        print(f"{name:<12} {scalar:>15.0f} {batch:>15.0f} {batch / scalar:>8.2f}x")
        results[name] = {
            "scalar_lines_per_s": scalar,
            "batch_lines_per_s": batch,
            "speedup": batch / scalar,
        }
    write_bench_json(
        "encode_throughput",
        config={
            "num_cosets": NUM_COSETS,
            "words_per_line": WORDS_PER_LINE,
            "word_bits": WORD_BITS,
            "chunk_lines": CHUNK_LINES,
            "cost": "energy-then-saw",
            "speedup_floors": SPEEDUP_FLOORS,
        },
        results=results,
    )


if __name__ == "__main__":
    main()
