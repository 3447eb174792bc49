"""Tests for the time-series helpers: column z-score and jerk."""

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.timeseries.jerk import jerk
from repro.timeseries.normalize import z_score


class TestNormalization:
    def test_z_score_zero_mean_unit_std(self):
        data = np.random.default_rng(0).normal(3.0, 2.0, size=(200, 4))
        normalised = z_score(data)
        assert np.allclose(normalised.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(normalised.std(axis=0), 1.0, atol=1e-10)

    def test_z_score_constant_column_is_safe(self):
        data = np.ones((10, 1))
        assert np.all(np.isfinite(z_score(data)))

    def test_z_score_centres_a_near_constant_column_without_scaling(self):
        """A column whose spread is below EPSILON is centred, not blown up."""
        tiny = np.array([0.0, 1e-10, 2e-10, 3e-10])
        data = np.column_stack([tiny + 5.0, np.arange(4.0)])
        normalised = z_score(data)
        assert np.allclose(normalised[:, 0], tiny - tiny.mean(), atol=1e-12)
        assert np.allclose(normalised[:, 1].std(), 1.0)

    def test_z_score_rejects_empty_input(self):
        with pytest.raises(DataError):
            z_score(np.empty((0, 3)))

    def test_z_score_of_normalised_data_is_unchanged(self):
        data = np.random.default_rng(2).normal(1.0, 3.0, size=(30, 4))
        normalised = z_score(data)
        assert np.allclose(z_score(normalised), normalised, atol=1e-12)


class TestJerk:
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

    def test_jerk_of_1d_signal(self):
        signal = np.array([0.0, 1.0, 4.0, 9.0])
        assert np.allclose(jerk(signal, sampling_rate_hz=2.0), [2.0, 6.0, 10.0])

    @pytest.mark.parametrize("rate", [0.0, -50.0])
    def test_jerk_rejects_non_positive_sampling_rate(self, rate):
        with pytest.raises(DataError, match="sampling_rate_hz"):
            jerk(np.arange(5.0), sampling_rate_hz=rate)

    def test_jerk_rejects_4d_input(self):
        with pytest.raises(DataError, match="1-D, 2-D or 3-D"):
            jerk(np.zeros((2, 3, 4, 5)))
