"""Low-level statistical feature primitives over windowed sensor data.

All functions take a batch of windows of shape ``(n_windows, window_length,
channels)`` and return per-window feature blocks of shape ``(n_windows, k)``.
They are intentionally simple (linear in the window length) so the extraction
can run on the edge device, as required by the paper.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.timeseries.jerk import jerk
from repro.utils.validation import check_array


def _check_windows(windows: np.ndarray) -> np.ndarray:
    windows = check_array(windows, name="windows")
    if windows.ndim != 3:
        raise DataError(
            f"expected windows of shape (n, time, channels), got {windows.shape}"
        )
    return windows


def channel_means(windows: np.ndarray) -> np.ndarray:
    """Per-channel mean over the window: shape ``(n, channels)``."""
    windows = _check_windows(windows)
    return windows.mean(axis=1)


def channel_variances(windows: np.ndarray) -> np.ndarray:
    """Per-channel variance over the window: shape ``(n, channels)``."""
    windows = _check_windows(windows)
    return windows.var(axis=1)


def triaxial_magnitude_statistics(
    windows: np.ndarray,
    triaxial_groups: Sequence[Tuple[int, int, int]],
) -> np.ndarray:
    """Mean and variance of the Euclidean magnitude of each three-axis sensor.

    Returns ``(n, 2 * len(triaxial_groups))`` with the layout
    ``[mag_mean_g0, mag_var_g0, mag_mean_g1, ...]``.
    """
    windows = _check_windows(windows)
    blocks = []
    for group in triaxial_groups:
        triaxial = windows[:, :, list(group)]
        magnitude = np.linalg.norm(triaxial, axis=2)
        blocks.append(magnitude.mean(axis=1))
        blocks.append(magnitude.var(axis=1))
    if not blocks:
        return np.zeros((windows.shape[0], 0))
    return np.stack(blocks, axis=1)


def triaxial_jerk_statistics(
    windows: np.ndarray,
    triaxial_groups: Sequence[Tuple[int, int, int]],
    sampling_rate_hz: float = 1.0,
) -> np.ndarray:
    """Jerk statistics of each three-axis sensor.

    For every triaxial group this produces the mean and the variance of the
    per-axis jerk (averaged over the three axes) and the mean and variance of
    the jerk magnitude, giving 4 features per group.
    """
    windows = _check_windows(windows)
    blocks = []
    for group in triaxial_groups:
        triaxial = windows[:, :, list(group)]
        derivative = jerk(triaxial, sampling_rate_hz=sampling_rate_hz)
        blocks.append(derivative.mean(axis=(1, 2)))
        blocks.append(derivative.var(axis=(1, 2)))
        magnitude = np.linalg.norm(derivative, axis=2)
        blocks.append(magnitude.mean(axis=1))
        blocks.append(magnitude.var(axis=1))
    if not blocks:
        return np.zeros((windows.shape[0], 0))
    return np.stack(blocks, axis=1)
