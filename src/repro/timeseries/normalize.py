"""Column z-score normalisation for feature matrices."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_array

#: Columns whose standard deviation is below this are centred, not scaled.
EPSILON = 1e-8


def z_score(values: np.ndarray) -> np.ndarray:
    """Standardise columns to zero mean / unit variance."""
    values = check_array(values, name="values")
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    std_safe = np.where(np.asarray(std) < EPSILON, 1.0, std)
    return (values - mean) / std_safe
