"""Input validation helpers shared across the library.

These functions raise library exceptions (:class:`repro.exceptions.DataError`
and friends) with actionable messages instead of letting numpy errors leak out
of public entry points.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import DataError, ShapeError


def check_array(
    values,
    *,
    name: str = "array",
    ndim: Optional[int] = None,
) -> np.ndarray:
    """Convert ``values`` to a non-empty float64 array and validate its shape.

    Parameters
    ----------
    values:
        Array-like input.
    name:
        Name used in error messages.
    ndim:
        Required number of dimensions, or ``None`` to accept any.

    Returns
    -------
    numpy.ndarray
    """
    try:
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} could not be converted to a numeric array: {exc}") from exc
    if ndim is not None and array.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise DataError(f"{name} must not be empty")
    return array


def check_finite(array: np.ndarray, *, name: str = "array") -> np.ndarray:
    """Raise :class:`DataError` if ``array`` contains NaN or infinity."""
    if not np.all(np.isfinite(array)):
        bad = int(np.sum(~np.isfinite(array)))
        raise DataError(f"{name} contains {bad} non-finite values (NaN or inf)")
    return array


def check_labels(labels, *, n_samples: Optional[int] = None) -> np.ndarray:
    """Validate a 1-D integer label vector.

    Parameters
    ----------
    labels:
        Array-like of integer class labels.
    n_samples:
        If given, the expected length of the label vector.
    """
    array = np.asarray(labels)
    if array.ndim != 1:
        raise ShapeError(f"labels must be 1-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise DataError("labels must not be empty")
    if not np.issubdtype(array.dtype, np.integer):
        rounded = np.round(array)
        if not np.allclose(array, rounded):
            raise DataError("labels must contain integer class identifiers")
        array = rounded.astype(np.int64)
    else:
        array = array.astype(np.int64)
    if n_samples is not None and array.shape[0] != n_samples:
        raise ShapeError(
            f"labels has {array.shape[0]} entries but {n_samples} samples were provided"
        )
    return array


def check_probability(value: float, *, name: str = "value") -> float:
    """Validate a scalar in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise DataError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_feature_matrix(features, labels) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a 2-D feature matrix and its label vector."""
    array = check_array(features, name="X", ndim=2)
    check_finite(array, name="X")
    label_array = check_labels(labels, n_samples=array.shape[0])
    return array, label_array
