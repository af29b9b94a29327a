"""Deterministic random-stream helpers.

Every stochastic routine in the package draws from substreams spawned off a
single integer seed, so results are reproducible for a fixed seed no matter
how the work is batched or scheduled.
"""

from __future__ import annotations

import numpy as np


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent generators, one per substream index."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(c) for c in children]

