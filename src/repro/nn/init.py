"""Weight-initialisation schemes."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RandomState, resolve_rng


def he_uniform(shape, rng: RandomState = None) -> np.ndarray:
    """He/Kaiming uniform initialisation, suited to ReLU networks."""
    generator = resolve_rng(rng)
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return generator.uniform(-limit, limit, size=shape)


def zeros_init(shape) -> np.ndarray:
    """All-zero initialisation (used for biases)."""
    return np.zeros(shape, dtype=np.float64)


def _fans(shape) -> tuple:
    shape = tuple(shape)
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
