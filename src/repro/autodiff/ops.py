"""Free-function tensor operations built on :class:`~repro.autodiff.tensor.Tensor`.

The multi-input primitives (concatenation, stacking), the network layers
(``linear``, batch normalisation, ``l2_normalize``) and the row-wise pair
distance dispatch through the backend op registry — their forward/vjp rules
live in :mod:`repro.autodiff.primitives` as named, individually testable
records, one op per layer.  The remaining numerical helpers (softmax,
log-softmax, MSE) are expressed in terms of registered primitives, so their
tapes remain fully named without needing dedicated backward rules.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backend.registry import apply as _apply
from repro.autodiff.tensor import Tensor
from repro.exceptions import ShapeError


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing back to each input."""
    if not tensors:
        raise ShapeError("concatenate requires at least one tensor")
    return _apply("concatenate", *tensors, axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    if not tensors:
        raise ShapeError("stack requires at least one tensor")
    return _apply("stack", *tensors, axis=axis)


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return shifted - exp.sum(axis=axis, keepdims=True).log()


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Fully connected layer ``x @ weight + bias`` as one op."""
    if bias is None:
        return _apply("linear", x, weight)
    return _apply("linear", x, weight, bias)


def batch_norm_train(
    x: Tensor, gamma: Tensor, beta: Tensor, epsilon: float
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalise ``(batch, features)`` rows by their batch statistics.

    Returns the output plus the batch mean and biased variance (flat rows)
    for the caller's running-statistics update.
    """
    batch_stats: list = []
    out = _apply("batch_norm_train", x, gamma, beta, epsilon=epsilon, batch_stats=batch_stats)
    mean, variance = batch_stats
    return out, mean, variance


def batch_norm_eval(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    epsilon: float,
) -> Tensor:
    """Normalise ``(batch, features)`` rows by tracked statistics."""
    return _apply(
        "batch_norm_eval", x, gamma, beta,
        running_mean=running_mean, running_var=running_var, epsilon=epsilon,
    )


def l2_normalize(x: Tensor, axis: int = -1, epsilon: float = 1e-12) -> Tensor:
    """Normalise rows (or the given axis) of ``x`` to unit Euclidean norm."""
    return _apply("l2_normalize", x, axis=axis, epsilon=epsilon)


def pairwise_squared_distance(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise squared Euclidean distance between two equally shaped matrices.

    ``a`` and ``b`` must both be ``(n, d)``; the result is an ``(n,)`` tensor
    with entry ``i`` equal to ``||a_i - b_i||^2``.
    """
    if a.shape != b.shape:
        raise ShapeError(f"pairwise distance requires equal shapes, got {a.shape} and {b.shape}")
    return _apply("pairwise_squared_distance", a, b)


def euclidean_distance(a: Tensor, b: Tensor, epsilon: float = 1e-12) -> Tensor:
    """Row-wise Euclidean distance, ``sqrt`` smoothed for differentiability at 0."""
    return (pairwise_squared_distance(a, b) + epsilon).sqrt()


def mean_squared_error(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements (target never receives gradient)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()
