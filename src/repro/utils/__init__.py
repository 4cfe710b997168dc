"""Low-level helpers shared by every subsystem.

The module groups four concerns:

* :mod:`repro.utils.bitops` — bit- and symbol-level manipulation of memory
  words (popcounts, partitioning, Gray-coded MLC symbol extraction).
* :mod:`repro.utils.rng` — deterministic random-number helpers so every
  experiment in the repository is reproducible from a seed.
* :mod:`repro.utils.validation` — small argument-checking helpers used by
  public constructors.
* :mod:`repro.utils.blas` — reads and sets the thread count of the
  OpenBLAS NumPy ships (pool workers run it single-threaded).
"""

from repro.utils.bitops import (
    POPCOUNT16,
    bits_to_int,
    concat_subblocks,
    hamming_distance,
    hamming_weight,
    int_to_bits,
    interleave_planes,
    merge_symbols,
    popcount64_array,
    random_word,
    split_subblocks,
    split_symbols,
    split_planes,
    to_uint64_array,
)
from repro.utils.rng import UnseededRNGWarning, derive_seed, make_rng, spawn_rngs
from repro.utils.validation import (
    require,
    require_divisible,
    require_in_range,
    require_power_of_two,
)

__all__ = [
    "POPCOUNT16",
    "UnseededRNGWarning",
    "bits_to_int",
    "concat_subblocks",
    "derive_seed",
    "hamming_distance",
    "hamming_weight",
    "int_to_bits",
    "interleave_planes",
    "make_rng",
    "merge_symbols",
    "popcount64_array",
    "random_word",
    "require",
    "require_divisible",
    "require_in_range",
    "require_power_of_two",
    "spawn_rngs",
    "split_planes",
    "split_subblocks",
    "split_symbols",
    "to_uint64_array",
]
