"""The paper's statistical feature extractor.

With the default 22-channel sensor layout (six three-axis sensors plus four
scalar channels, see :mod:`repro.data.sensors`), the extractor produces exactly
80 features per one-second window:

* mean of every channel ........................... 22
* variance of every channel ....................... 22
* jerk mean / jerk variance per triaxial sensor .... 12
* jerk-magnitude mean / variance per triaxial ...... 12
* magnitude mean / variance per triaxial sensor .... 12

Total: 80.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.features.statistical import (
    channel_means,
    channel_variances,
    triaxial_jerk_statistics,
    triaxial_magnitude_statistics,
)
from repro.utils.validation import check_array


class StatisticalFeatureExtractor:
    """Window-level statistical feature extraction (linear time).

    Parameters
    ----------
    triaxial_groups:
        Channel-index triples identifying three-axis sensors (accelerometer,
        gyroscope, ...).  Jerk and magnitude statistics are computed per group.
    sampling_rate_hz:
        Sampling rate used to scale the jerk to physical units.
    """

    def __init__(
        self,
        triaxial_groups: Sequence[Tuple[int, int, int]],
        sampling_rate_hz: float = 120.0,
    ) -> None:
        if sampling_rate_hz <= 0:
            raise DataError(f"sampling_rate_hz must be positive, got {sampling_rate_hz}")
        self.triaxial_groups = [tuple(int(i) for i in group) for group in triaxial_groups]
        for group in self.triaxial_groups:
            if len(group) != 3:
                raise DataError(f"triaxial groups must have exactly 3 channels, got {group}")
        self.sampling_rate_hz = float(sampling_rate_hz)

    # ------------------------------------------------------------------ #
    def transform(self, windows: np.ndarray) -> np.ndarray:
        """Map a window batch ``(n, time, channels)`` to a feature matrix ``(n, d)``."""
        windows = check_array(windows, name="windows")
        if windows.ndim == 2:
            windows = windows[None, :, :]
        if windows.ndim != 3:
            raise DataError(
                f"expected windows of shape (n, time, channels), got {windows.shape}"
            )
        n_channels = windows.shape[2]
        for group in self.triaxial_groups:
            if max(group) >= n_channels:
                raise DataError(
                    f"triaxial group {group} references channel beyond the "
                    f"{n_channels} available channels"
                )
        blocks = [
            channel_means(windows),
            channel_variances(windows),
            triaxial_jerk_statistics(
                windows, self.triaxial_groups, sampling_rate_hz=self.sampling_rate_hz
            ),
            triaxial_magnitude_statistics(windows, self.triaxial_groups),
        ]
        return np.concatenate(blocks, axis=1)

    __call__ = transform

    # ------------------------------------------------------------------ #
    def n_features(self, n_channels: int) -> int:
        """Number of features produced for a given channel count."""
        base = 2 * n_channels + 6 * len(self.triaxial_groups)
        return base
