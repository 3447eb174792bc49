"""Jerk (time derivative) computation.

The paper's 80-dimensional feature vector includes "the average jerk, and the
variance of the jerk for each three-dimensional feature sensor"; jerk here is
the discrete time derivative of a sensor signal scaled by the sampling rate.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError
from repro.utils.validation import check_array


def jerk(values: np.ndarray, sampling_rate_hz: float = 1.0) -> np.ndarray:
    """First-order difference along the time axis, scaled to physical units.

    Accepts ``(time,)``, ``(time, channels)`` or ``(windows, time, channels)``
    arrays; the output is one sample shorter along the time axis.
    """
    values = check_array(values, name="values")
    if sampling_rate_hz <= 0:
        raise DataError(f"sampling_rate_hz must be positive, got {sampling_rate_hz}")
    if values.ndim == 1:
        return np.diff(values) * sampling_rate_hz
    if values.ndim == 2:
        return np.diff(values, axis=0) * sampling_rate_hz
    if values.ndim == 3:
        return np.diff(values, axis=1) * sampling_rate_hz
    raise DataError(f"jerk expects 1-D, 2-D or 3-D input, got {values.ndim}-D")
