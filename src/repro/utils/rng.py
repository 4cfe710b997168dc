"""Deterministic random-number helpers.

Every experiment in the repository is seeded.  To avoid accidentally
correlated streams (for example, the fault map reusing the same draws as
the workload generator) the helpers here derive independent child seeds
from a parent seed and a textual label using ``numpy``'s ``SeedSequence``.

Every generator in the library comes from :func:`make_rng`.  A task
that draws from anything else (numpy's or the stdlib's global state, an
unseeded generator) gives rows that differ between a serial and a
parallel run, which the jobs=1 vs jobs=4 comparison of every figure
sweep rejects.  Unseeded use stays possible for exploration, but it is
loud — the first ``make_rng(None)`` of a process emits an
:class:`UnseededRNGWarning`.
"""

from __future__ import annotations

import hashlib
import warnings
from typing import List, Optional, Sequence, Union

import numpy as np

__all__ = ["UnseededRNGWarning", "derive_seed", "make_rng", "spawn_rngs"]

SeedLike = Union[int, None]


class UnseededRNGWarning(UserWarning):
    """Warned once per process when a non-deterministic generator is made.

    Exploratory use of ``make_rng()`` is fine; experiment results derived
    from such a generator are not reproducible from any seed, which is why
    the first unseeded construction announces itself.
    """


#: One-time latch for :class:`UnseededRNGWarning` (reset by tests only).
_unseeded_warned = False


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a deterministic 63-bit child seed from a parent seed and label.

    The derivation hashes ``(parent_seed, label)`` with SHA-256, so distinct
    labels give independent streams and the mapping is stable across runs
    and platforms.
    """
    digest = hashlib.sha256(f"{parent_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def make_rng(seed: SeedLike = None, label: Optional[str] = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Parent seed.  ``None`` produces a non-deterministic generator —
        acceptable for exploratory use, and loud about it: the first such
        call of a process emits an :class:`UnseededRNGWarning`.  Every
        experiment entry point passes an explicit seed.
    label:
        Optional label mixed into the seed via :func:`derive_seed` so that
        different subsystems sharing one experiment seed still receive
        independent streams.
    """
    if seed is None:
        global _unseeded_warned
        if not _unseeded_warned:
            _unseeded_warned = True
            warnings.warn(
                "make_rng() without a seed creates a non-deterministic "
                "generator; results derived from it are not reproducible. "
                "Pass an explicit seed in experiment code.",
                UnseededRNGWarning,
                stacklevel=2,
            )
        return np.random.default_rng()
    if label is not None:
        seed = derive_seed(int(seed), label)
    return np.random.default_rng(int(seed))


def spawn_rngs(seed: int, labels: Sequence[str]) -> List[np.random.Generator]:
    """Create one independent generator per label from a single parent seed."""
    return [make_rng(seed, label) for label in labels]
