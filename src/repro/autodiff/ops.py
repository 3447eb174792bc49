"""Free-function tensor operations built on :class:`~repro.autodiff.tensor.Tensor`.

The multi-input primitives (concatenation, stacking), the network layers
(``linear``, batch normalisation, ``l2_normalize``), the row-wise pair
distance and PILOTE's whole training objective dispatch through the backend
op registry — their forward/vjp rules live in
:mod:`repro.autodiff.primitives` as named, individually testable records,
one op per layer.  The remaining numerical helpers (softmax,
log-softmax, MSE) are expressed in terms of registered primitives, so their
tapes remain fully named without needing dedicated backward rules.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backend.registry import apply as _apply
from repro.autodiff.tensor import Tensor
from repro.exceptions import DataError, ShapeError
from repro.utils.validation import check_probability


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
    x: Tensor, gamma: Tensor, beta: Tensor, mean: np.ndarray, std: np.ndarray
) -> Tensor:
    """Normalise ``(batch, features)`` rows by tracked statistics, as the
    ``(mean, std)`` of :func:`~repro.autodiff.primitives.batch_norm_eval_constants`."""
    return _apply("batch_norm_eval", x, gamma, beta, mean=mean, std=std)


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


def pilote_objective(
    embeddings: Tensor,
    left: np.ndarray,
    right: np.ndarray,
    same_class,
    *,
    margin: float = 1.0,
    variant: str = "squared",
    alpha: float = 0.0,
    old_rows: Optional[np.ndarray] = None,
    teacher: Optional[np.ndarray] = None,
) -> Tensor:
    """PILOTE's joint objective ``α · L_disti + (1 − α) · L_contra`` as one op.

    ``embeddings`` are one batch's ``(n, d)`` rows.  The contrastive term
    (paper Eq. 2, ``variant`` ``"squared"`` or ``"hadsell"``) is the mean
    over the pairs ``(left[i], right[i])`` with pair labels ``same_class``;
    the distillation term (Algorithm 1, line 11) is the mean squared
    distance of the ``old_rows`` to ``teacher``, the frozen model's
    embeddings of those rows.  With no ``old_rows`` (or ``alpha == 0``) the
    objective is the contrastive term alone; with an empty ``old_rows`` it
    is ``(1 − α) · L_contra``.  Values and gradients are bit-identical to
    the composite of row gathers, :class:`~repro.nn.losses.ContrastiveLoss`
    and :class:`~repro.nn.losses.DistillationLoss` it replaces.
    """
    if variant not in ("squared", "hadsell"):
        raise DataError(f"variant must be 'squared' or 'hadsell', got {variant!r}")
    if margin <= 0:
        raise DataError(f"margin must be positive, got {margin}")
    alpha = check_probability(alpha, name="alpha")
    left = np.asarray(left).reshape(-1)
    right = np.asarray(right).reshape(-1)
    if left.shape != right.shape:
        raise ShapeError(f"pair indices must share a shape, got {left.shape} vs {right.shape}")
    if np.size(same_class) != left.shape[0]:
        raise ShapeError(f"expected {left.shape[0]} pair labels, got {np.size(same_class)}")
    if old_rows is not None:
        old_rows = np.asarray(old_rows).reshape(-1)
        expected = (old_rows.shape[0],) + embeddings.shape[1:]
        if old_rows.size and (teacher is None or np.shape(teacher) != expected):
            raise ShapeError(
                f"distillation needs teacher embeddings of shape {expected}, got "
                f"{None if teacher is None else np.shape(teacher)}"
            )
    return _apply(
        "pilote_objective", embeddings, left=left, right=right, same_class=same_class,
        margin=float(margin), variant=variant, alpha=alpha, old_rows=old_rows,
        teacher=teacher,
    )


def euclidean_distance(a: Tensor, b: Tensor, epsilon: float = 1e-12) -> Tensor:
    """Row-wise Euclidean distance, ``sqrt`` smoothed for differentiability at 0."""
    return (pairwise_squared_distance(a, b) + epsilon).sqrt()


def mean_squared_error(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements (target never receives gradient)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()
