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

    def test_returned_stats_reproduce_the_normalisation(self):
        """Edge-side data reuses the cloud's statistics; reapplying them to
        the cloud's own data gives back exactly the cloud's normalisation."""
        data = np.random.default_rng(2).normal(1.0, 3.0, size=(30, 4))
        normalised, mean, std = z_score(data, return_stats=True)
        assert np.array_equal(z_score(data, mean=mean, std=std), normalised)


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
