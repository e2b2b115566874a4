"""Seeded random number streams.

All randomness in the package flows through :func:`derive_rng`: a
NumPy ``Generator`` backed by PCG64, keyed by a user seed plus a fixed
stream id so that independent stages (splitting, oversampling, weight
init, shuffling, dropout, synthesis) never share a stream. Same seed,
same platform-independent bit stream.
"""

from __future__ import annotations

import numpy as np

from .errors import check_count

# Stream ids, one per consumer. New consumers append; never renumber.
STREAM_SPLIT = 1
STREAM_SMOTE = 2
STREAM_ADASYN = 3
STREAM_INIT = 4
STREAM_SHUFFLE = 5
STREAM_DROPOUT = 6
STREAM_SYNTH = 7


def derive_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Generator for (seed, stream, index); index separates per-item streams.
    ``seed`` must be a non-negative integer: a float or a bool would be
    truncated into another seed's stream."""
    seed = check_count("seed", seed, minimum=0)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(stream, index)))
    )
