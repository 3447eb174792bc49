"""Column z-score normalisation for feature matrices."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_array


def z_score(
    values: np.ndarray,
    *,
    mean: Optional[np.ndarray] = None,
    std: Optional[np.ndarray] = None,
    epsilon: float = 1e-8,
    return_stats: bool = False,
):
    """Standardise columns to zero mean / unit variance.

    When ``mean``/``std`` are provided they are used instead of the input's own
    statistics — this is how edge-side data reuses the normalisation fitted on
    the cloud.
    """
    values = check_array(values, name="values")
    if mean is None:
        mean = values.mean(axis=0)
    if std is None:
        std = values.std(axis=0)
    std_safe = np.where(np.asarray(std) < epsilon, 1.0, std)
    normalised = (values - mean) / std_safe
    if return_stats:
        return normalised, np.asarray(mean), np.asarray(std)
    return normalised
