"""Denoising filters for raw sensor streams (linear-time operations).

``scipy.signal`` is imported inside the two filters that need it, so
``import repro`` does not pay for it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError
from repro.utils.validation import check_array


def moving_average(stream: np.ndarray, window: int = 5) -> np.ndarray:
    """Centered moving-average filter applied per channel.

    Edges are handled with reflective padding so the output keeps the input
    length.
    """
    stream = check_array(stream, name="stream")
    if window <= 0:
        raise DataError(f"window must be positive, got {window}")
    if window == 1:
        return stream.copy()
    original_ndim = stream.ndim
    if original_ndim == 1:
        stream = stream[:, None]
    kernel = np.ones(window) / window
    pad = window // 2
    padded = np.pad(stream, ((pad, window - 1 - pad), (0, 0)), mode="reflect")
    smoothed = np.stack(
        [np.convolve(padded[:, c], kernel, mode="valid") for c in range(stream.shape[1])],
        axis=1,
    )
    return smoothed[:, 0] if original_ndim == 1 else smoothed


def median_filter(stream: np.ndarray, window: int = 5) -> np.ndarray:
    """Median filter per channel (robust to impulsive sensor glitches)."""
    stream = check_array(stream, name="stream")
    if window <= 0:
        raise DataError(f"window must be positive, got {window}")
    if window % 2 == 0:
        window += 1  # scipy requires an odd kernel size
    from scipy import signal as _signal

    original_ndim = stream.ndim
    if original_ndim == 1:
        stream = stream[:, None]
    filtered = np.stack(
        [_signal.medfilt(stream[:, c], kernel_size=window) for c in range(stream.shape[1])],
        axis=1,
    )
    return filtered[:, 0] if original_ndim == 1 else filtered


def low_pass_filter(
    stream: np.ndarray,
    cutoff_hz: float,
    sampling_rate_hz: float,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth low-pass filter per channel."""
    stream = check_array(stream, name="stream")
    if cutoff_hz <= 0 or sampling_rate_hz <= 0:
        raise DataError("cutoff and sampling rate must be positive")
    nyquist = sampling_rate_hz / 2.0
    if cutoff_hz >= nyquist:
        raise DataError(
            f"cutoff {cutoff_hz} Hz must be below the Nyquist frequency {nyquist} Hz"
        )
    from scipy import signal as _signal

    b, a = _signal.butter(order, cutoff_hz / nyquist, btype="low")
    return _signal.filtfilt(b, a, stream, axis=0)


def denoise(
    stream: np.ndarray,
    method: str = "moving_average",
    **kwargs,
) -> np.ndarray:
    """Dispatch to one of the denoising filters by name.

    ``method`` is one of ``"moving_average"``, ``"median"``, ``"low_pass"`` or
    ``"none"``.
    """
    methods = {
        "moving_average": moving_average,
        "median": median_filter,
        "low_pass": low_pass_filter,
        "none": lambda s, **_: check_array(s, name="stream").copy(),
    }
    if method not in methods:
        raise DataError(f"unknown denoising method {method!r}; choose from {sorted(methods)}")
    return methods[method](stream, **kwargs)
