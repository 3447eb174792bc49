"""Random number generation helpers.

Every stochastic component in the library accepts a ``seed`` argument that may
be ``None`` (non-deterministic), an ``int`` (deterministic), or an existing
:class:`numpy.random.Generator`.  :func:`resolve_rng` normalises all three into
a ``Generator`` so downstream code never has to branch on the type.
"""

from __future__ import annotations

from typing import Union

import numpy as np

# Public alias used in type hints across the library.
RandomState = Union[None, int, np.random.Generator]


def resolve_rng(seed: RandomState = None) -> np.random.Generator:
    """Normalise ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (OS entropy), an int, or an existing generator (returned
        unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: RandomState, count: int) -> list:
    """Derive ``count`` independent generators from a single seed.

    Useful for giving each round of a repeated experiment its own stream while
    keeping the whole experiment reproducible from one integer.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = resolve_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
