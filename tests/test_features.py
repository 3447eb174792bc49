"""Tests for the statistical feature extractor."""

import numpy as np
import pytest

from repro.data.sensors import default_sensor_suite
from repro.exceptions import DataError
from repro.features.extractor import StatisticalFeatureExtractor
from repro.features.statistical import (
    channel_means,
    channel_variances,
    triaxial_jerk_statistics,
    triaxial_magnitude_statistics,
)


@pytest.fixture()
def windows():
    return np.random.default_rng(0).normal(size=(5, 40, 6))


class TestStatisticalPrimitives:
    def test_channel_means_matches_numpy(self, windows):
        assert np.allclose(channel_means(windows), windows.mean(axis=1))

    def test_channel_variances_matches_numpy(self, windows):
        assert np.allclose(channel_variances(windows), windows.var(axis=1))

    def test_triaxial_magnitude_statistics_shape(self, windows):
        block = triaxial_magnitude_statistics(windows, [(0, 1, 2), (3, 4, 5)])
        assert block.shape == (5, 4)
        assert np.all(block[:, 0] >= 0)  # magnitudes are non-negative

    def test_triaxial_jerk_statistics_shape(self, windows):
        block = triaxial_jerk_statistics(windows, [(0, 1, 2)], sampling_rate_hz=40.0)
        assert block.shape == (5, 4)

    def test_no_groups_gives_empty_block(self, windows):
        assert triaxial_jerk_statistics(windows, []).shape == (5, 0)

    def test_still_signal_has_near_zero_jerk(self):
        still = np.ones((2, 30, 3)) * 5.0
        block = triaxial_jerk_statistics(still, [(0, 1, 2)])
        assert np.allclose(block, 0.0)

    def test_wrong_shape_raises(self):
        with pytest.raises(DataError):
            channel_means(np.zeros((5, 6)))


class TestStatisticalFeatureExtractor:
    def test_default_suite_gives_80_features(self):
        suite = default_sensor_suite()
        extractor = StatisticalFeatureExtractor(
            suite.triaxial_groups, sampling_rate_hz=suite.sampling_rate_hz
        )
        windows = np.random.default_rng(0).normal(size=(3, suite.window_length, suite.n_channels))
        features = extractor.transform(windows)
        assert features.shape == (3, 80)
        assert extractor.n_features(suite.n_channels) == 80

    def test_single_window_2d_input(self):
        suite = default_sensor_suite()
        extractor = StatisticalFeatureExtractor(suite.triaxial_groups)
        window = np.random.default_rng(0).normal(size=(suite.window_length, suite.n_channels))
        assert extractor.transform(window).shape == (1, 80)

    def test_group_out_of_range_raises(self):
        extractor = StatisticalFeatureExtractor([(0, 1, 99)])
        with pytest.raises(DataError):
            extractor.transform(np.zeros((1, 10, 5)))

    def test_invalid_group_size_raises(self):
        with pytest.raises(DataError):
            StatisticalFeatureExtractor([(0, 1)])

    def test_invalid_sampling_rate(self):
        with pytest.raises(DataError):
            StatisticalFeatureExtractor([(0, 1, 2)], sampling_rate_hz=0.0)

    def test_features_are_deterministic(self):
        suite = default_sensor_suite()
        extractor = StatisticalFeatureExtractor(suite.triaxial_groups)
        windows = np.random.default_rng(1).normal(size=(4, 120, 22))
        assert np.allclose(extractor.transform(windows), extractor.transform(windows))

    def test_callable_alias(self):
        suite = default_sensor_suite()
        extractor = StatisticalFeatureExtractor(suite.triaxial_groups)
        windows = np.random.default_rng(1).normal(size=(2, 120, 22))
        assert np.allclose(extractor(windows), extractor.transform(windows))
