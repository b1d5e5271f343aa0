"""Deterministic random-number-generator helpers.

Every stochastic component in the library (dataset synthesis, channel
fading, client sampling, weight init) takes an explicit seed or
``numpy.random.Generator`` so that experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["new_rng", "spawn_rngs"]


def new_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts an integer seed, an existing generator (returned unchanged), or
    ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | None, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from one seed.

    Uses ``SeedSequence.spawn`` so children are statistically independent
    and stable across runs for a fixed ``seed``.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
