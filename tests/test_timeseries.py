"""Tests for the time-series preprocessing substrate."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.exceptions import DataError, ShapeError
from repro.timeseries.denoise import denoise, low_pass_filter, median_filter, moving_average
from repro.timeseries.jerk import jerk, jerk_magnitude
from repro.timeseries.normalize import (
    StandardScaler,
    min_max_scale,
    per_window_normalize,
    z_score,
)
from repro.timeseries.resample import linear_resample, resample_to_rate
from repro.timeseries.window import (
    segment_windows,
    sliding_windows,
    validate_window_batch,
    windows_per_second,
)


class TestWindowing:
    def test_segment_shapes(self):
        stream = np.arange(250 * 3, dtype=float).reshape(250, 3)
        windows = segment_windows(stream, 120)
        assert windows.shape == (2, 120, 3)

    def test_segment_preserves_order(self):
        stream = np.arange(10, dtype=float).reshape(10, 1)
        windows = segment_windows(stream, 5)
        assert np.allclose(windows[0, :, 0], np.arange(5))
        assert np.allclose(windows[1, :, 0], np.arange(5, 10))

    def test_segment_drop_last_false_requires_exact_multiple(self):
        stream = np.zeros((11, 2))
        with pytest.raises(DataError):
            segment_windows(stream, 5, drop_last=False)

    def test_segment_too_short_raises(self):
        with pytest.raises(DataError):
            segment_windows(np.zeros((3, 2)), 5)

    def test_sliding_windows_overlap(self):
        stream = np.arange(10, dtype=float).reshape(10, 1)
        windows = sliding_windows(stream, window_length=4, step=2)
        assert windows.shape == (4, 4, 1)
        assert np.allclose(windows[1, :, 0], [2, 3, 4, 5])

    def test_windows_per_second(self):
        assert windows_per_second(120.0) == 120
        assert windows_per_second(50.0, 2.0) == 100
        with pytest.raises(DataError):
            windows_per_second(0.0)

    def test_validate_window_batch(self):
        assert validate_window_batch(np.zeros((2, 10, 3))) == (2, 10, 3)
        with pytest.raises(ShapeError):
            validate_window_batch(np.zeros((2, 10)))


class TestDenoising:
    def test_moving_average_smooths_noise(self):
        rng = np.random.default_rng(0)
        clean = np.sin(np.linspace(0, 4 * np.pi, 200))[:, None]
        noisy = clean + rng.normal(0, 0.5, size=clean.shape)
        smoothed = moving_average(noisy, window=9)
        assert smoothed.shape == noisy.shape
        assert np.mean((smoothed - clean) ** 2) < np.mean((noisy - clean) ** 2)

    def test_moving_average_window_one_is_identity(self):
        data = np.random.default_rng(0).normal(size=(20, 2))
        assert np.allclose(moving_average(data, window=1), data)

    def test_moving_average_1d_input(self):
        data = np.ones(30)
        assert moving_average(data, window=5).shape == (30,)

    def test_median_filter_removes_impulses(self):
        data = np.zeros((50, 1))
        data[25, 0] = 100.0
        assert abs(median_filter(data, window=5)[25, 0]) < 1.0

    def test_low_pass_attenuates_high_frequency(self):
        t = np.arange(0, 2, 1 / 120)
        low = np.sin(2 * np.pi * 1.0 * t)
        high = np.sin(2 * np.pi * 40.0 * t)
        mixed = (low + high)[:, None]
        filtered = low_pass_filter(mixed, cutoff_hz=5.0, sampling_rate_hz=120.0)
        assert np.mean((filtered[:, 0] - low) ** 2) < 0.05

    def test_low_pass_rejects_cutoff_above_nyquist(self):
        with pytest.raises(DataError):
            low_pass_filter(np.zeros((100, 1)), cutoff_hz=70.0, sampling_rate_hz=120.0)

    def test_denoise_dispatch_and_unknown(self):
        data = np.random.default_rng(0).normal(size=(30, 2))
        assert denoise(data, "none").shape == data.shape
        assert denoise(data, "moving_average", window=3).shape == data.shape
        with pytest.raises(DataError):
            denoise(data, "fourier")

    def test_invalid_window_sizes(self):
        with pytest.raises(DataError):
            moving_average(np.zeros((5, 1)), window=0)
        with pytest.raises(DataError):
            median_filter(np.zeros((5, 1)), window=-1)


class TestNormalization:
    def test_z_score_zero_mean_unit_std(self):
        data = np.random.default_rng(0).normal(3.0, 2.0, size=(200, 4))
        normalised = z_score(data)
        assert np.allclose(normalised.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(normalised.std(axis=0), 1.0, atol=1e-10)

    def test_z_score_with_external_statistics(self):
        data = np.ones((5, 2))
        normalised = z_score(data, mean=np.zeros(2), std=np.ones(2) * 2)
        assert np.allclose(normalised, 0.5)

    def test_z_score_constant_column_is_safe(self):
        data = np.ones((10, 1))
        assert np.all(np.isfinite(z_score(data)))

    def test_z_score_return_stats(self):
        data = np.random.default_rng(1).normal(size=(20, 3))
        _, mean, std = z_score(data, return_stats=True)
        assert mean.shape == (3,) and std.shape == (3,)

    def test_min_max_scale_range(self):
        data = np.random.default_rng(0).normal(size=(50, 3))
        scaled = min_max_scale(data, feature_range=(-1.0, 1.0))
        assert scaled.min() >= -1.0 - 1e-9 and scaled.max() <= 1.0 + 1e-9

    def test_min_max_invalid_range(self):
        with pytest.raises(ValueError):
            min_max_scale(np.ones((3, 2)), feature_range=(1.0, 0.0))

    def test_per_window_normalize(self):
        windows = np.random.default_rng(0).normal(5.0, 2.0, size=(4, 50, 3))
        normalised = per_window_normalize(windows)
        assert np.allclose(normalised.mean(axis=1), 0.0, atol=1e-9)

    def test_standard_scaler_round_trip(self):
        data = np.random.default_rng(0).normal(2.0, 3.0, size=(100, 4))
        scaler = StandardScaler().fit(data)
        transformed = scaler.transform(data)
        assert np.allclose(transformed.mean(axis=0), 0.0, atol=1e-9)
        with pytest.raises(RuntimeError):
            StandardScaler().transform(data)


class TestJerkAndResample:
    def test_jerk_of_linear_signal_is_constant(self):
        signal = np.arange(10.0)[:, None] * 2.0
        derivative = jerk(signal, sampling_rate_hz=1.0)
        assert np.allclose(derivative, 2.0)

    def test_jerk_scales_with_sampling_rate(self):
        signal = np.arange(10.0)[:, None]
        assert np.allclose(jerk(signal, sampling_rate_hz=120.0), 120.0)

    def test_jerk_3d_batch(self):
        windows = np.random.default_rng(0).normal(size=(3, 20, 4))
        assert jerk(windows).shape == (3, 19, 4)

    def test_jerk_magnitude_shape_and_positivity(self):
        triaxial = np.random.default_rng(0).normal(size=(30, 3))
        magnitude = jerk_magnitude(triaxial)
        assert magnitude.shape == (29,)
        assert np.all(magnitude >= 0)

    def test_jerk_magnitude_requires_three_axes(self):
        with pytest.raises(DataError):
            jerk_magnitude(np.zeros((10, 2)))

    def test_linear_resample_lengths(self):
        stream = np.linspace(0, 1, 50)[:, None]
        assert linear_resample(stream, 120).shape == (120, 1)
        assert linear_resample(stream, 10).shape == (10, 1)

    def test_linear_resample_preserves_endpoints(self):
        stream = np.linspace(0, 9, 10)[:, None]
        resampled = linear_resample(stream, 19)
        assert resampled[0, 0] == pytest.approx(0.0)
        assert resampled[-1, 0] == pytest.approx(9.0)

    def test_resample_to_rate(self):
        stream = np.zeros((60, 2))
        assert resample_to_rate(stream, 60.0, 120.0).shape[0] == 120

    def test_resample_invalid_arguments(self):
        with pytest.raises(DataError):
            linear_resample(np.zeros((5, 1)), 1)
        with pytest.raises(DataError):
            resample_to_rate(np.zeros((5, 1)), 0.0, 10.0)

    def test_import_repro_leaves_scipy_unloaded(self):
        # scipy.signal is imported inside the two filters that need it.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, repro; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
