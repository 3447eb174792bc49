"""Weight-initialisation schemes."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RandomState, resolve_rng


def he_uniform(shape, rng: RandomState = None) -> np.ndarray:
    """He/Kaiming uniform initialisation, suited to ReLU networks.

    The fan-in is ``shape[0]``: :class:`~repro.nn.layers.Linear` stores its
    weight as ``(in_features, out_features)``.
    """
    generator = resolve_rng(rng)
    limit = np.sqrt(6.0 / shape[0])
    return generator.uniform(-limit, limit, size=shape)


def zeros_init(shape) -> np.ndarray:
    """All-zero initialisation (used for biases)."""
    return np.zeros(shape, dtype=np.float64)
