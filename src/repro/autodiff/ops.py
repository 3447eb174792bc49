"""Free-function tensor operations built on :class:`~repro.autodiff.tensor.Tensor`.

The network layers (``linear``, batch normalisation), the
row-wise pair distance and PILOTE's whole training step (network and
objective) dispatch through the backend op registry — their forward/vjp
rules live in :mod:`repro.autodiff.primitives` as named, individually
testable records, one op per layer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff.primitives import STEP_LAYERS
from repro.backend.registry import apply as _apply
from repro.autodiff.tensor import Tensor
from repro.exceptions import DataError, ShapeError
from repro.utils.validation import check_probability


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fully connected layer ``x @ weight + bias`` as one op."""
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
    x: Tensor, gamma: Tensor, beta: Tensor, mean: np.ndarray, std: np.ndarray
) -> Tensor:
    """Normalise ``(batch, features)`` rows by tracked statistics, as the
    ``(mean, std)`` of :func:`~repro.autodiff.primitives.batch_norm_eval_constants`."""
    return _apply("batch_norm_eval", x, gamma, beta, mean=mean, std=std)


def pairwise_squared_distance(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise squared Euclidean distance between two equally shaped matrices.

    ``a`` and ``b`` must both be ``(n, d)``; the result is an ``(n,)`` tensor
    with entry ``i`` equal to ``||a_i - b_i||^2``.
    """
    if a.shape != b.shape:
        raise ShapeError(f"pairwise distance requires equal shapes, got {a.shape} and {b.shape}")
    return _apply("pairwise_squared_distance", a, b)


def pilote_step(
    inputs: Tensor,
    parameters: Sequence[Tensor],
    *,
    layers: Sequence[Tuple[str, Optional[float]]],
    left: np.ndarray,
    right: np.ndarray,
    same_class,
    margin: float = 1.0,
    variant: str = "squared",
    alpha: float = 0.0,
    old_rows: Optional[np.ndarray] = None,
    teacher: Optional[np.ndarray] = None,
) -> Tuple[Tensor, List[Tuple[np.ndarray, np.ndarray]]]:
    """PILOTE's training loss on one batch, network included, as one op.

    ``layers`` is the network as ``(kind, epsilon)`` entries: ``"linear"``
    takes the next two ``parameters`` (weight, bias), ``"batch_norm"`` the
    next two (gamma, beta) and normalises by batch statistics with its
    ``epsilon``, ``"relu"`` none; the last layer's output rows are the
    embeddings.  The objective over the resulting embeddings is
    :func:`~repro.autodiff.primitives.pilote_loss` (``α · L_disti + (1 − α)
    · L_contra``; ``teacher`` holds the frozen model's embeddings of the
    ``old_rows``).  Returns the loss and each BatchNorm's batch
    ``(mean, biased variance)`` for the caller's running-statistics update.
    """
    if variant not in ("squared", "hadsell"):
        raise DataError(f"variant must be 'squared' or 'hadsell', got {variant!r}")
    if margin <= 0:
        raise DataError(f"margin must be positive, got {margin}")
    alpha = check_probability(alpha, name="alpha")
    layers = tuple(layers)
    unknown = sorted({kind for kind, _ in layers} - set(STEP_LAYERS))
    if unknown:
        raise DataError(f"pilote_step runs {STEP_LAYERS} layers, got {unknown}")
    if inputs.ndim != 2 or inputs.shape[0] < 2:
        raise ShapeError(
            f"a training step needs a (batch >= 2, features) input, got {inputs.shape}"
        )
    left = np.asarray(left).reshape(-1)
    right = np.asarray(right).reshape(-1)
    if left.shape != right.shape:
        raise ShapeError(f"pair indices must share a shape, got {left.shape} vs {right.shape}")
    if np.size(same_class) != left.shape[0]:
        raise ShapeError(f"expected {left.shape[0]} pair labels, got {np.size(same_class)}")
    if old_rows is not None:
        old_rows = np.asarray(old_rows).reshape(-1)
        # the last parameter is the output width's bias (or BatchNorm beta)
        expected = (old_rows.shape[0], np.shape(parameters[-1])[0])
        if old_rows.size and (teacher is None or np.shape(teacher) != expected):
            raise ShapeError(
                f"distillation needs teacher embeddings of shape {expected}, got "
                f"{None if teacher is None else np.shape(teacher)}"
            )
    batch_stats: List[Tuple[np.ndarray, np.ndarray]] = []
    loss = _apply(
        "pilote_step", inputs, *parameters, layers=layers, left=left, right=right,
        same_class=same_class, margin=float(margin), variant=variant, alpha=alpha,
        old_rows=old_rows, teacher=teacher, batch_stats=batch_stats,
    )
    return loss, batch_stats

