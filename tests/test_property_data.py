"""Property-based tests for the data substrate: features and splits."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.dataset import HARDataset, train_val_test_split
from repro.features.statistical import channel_means, channel_variances
from repro.timeseries.jerk import jerk
from repro.timeseries.normalize import z_score

SETTINGS = dict(max_examples=20, deadline=None)

class TestFeatureProperties:
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(4, 30), st.integers(1, 5)),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(**SETTINGS)
    def test_mean_and_variance_bounds(self, windows):
        means = channel_means(windows)
        variances = channel_variances(windows)
        assert np.all(variances >= -1e-12)
        assert np.all(means >= windows.min(axis=1) - 1e-9)
        assert np.all(means <= windows.max(axis=1) + 1e-9)

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False), st.integers(5, 40))
    @settings(**SETTINGS)
    def test_constant_signal_has_zero_variance_and_jerk(self, value, length):
        windows = np.full((2, length, 3), value)
        assert np.allclose(channel_variances(windows), 0.0)
        assert np.allclose(jerk(windows), 0.0)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(5, 40), st.integers(1, 5)),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(**SETTINGS)
    def test_z_score_is_shift_invariant(self, values):
        shifted = values + 100.0
        assert np.allclose(z_score(values), z_score(shifted), atol=1e-6)


class TestSplitProperties:
    @given(st.integers(10, 40), st.integers(2, 4), st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_split_partitions_every_sample_exactly_once(self, per_class, n_classes, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(per_class * n_classes, 5))
        labels = np.repeat(np.arange(n_classes), per_class)
        dataset = HARDataset(features=features, labels=labels)
        splits = train_val_test_split(dataset, rng=seed)
        total = splits.train.n_samples + splits.validation.n_samples + splits.test.n_samples
        assert total == dataset.n_samples
        all_rows = np.concatenate(
            [splits.train.features, splits.validation.features, splits.test.features]
        )
        # Every original row appears exactly once (rows are unique with prob. 1).
        assert np.allclose(np.sort(all_rows, axis=0), np.sort(features, axis=0))

    @given(st.integers(10, 30), st.integers(0, 50))
    @settings(**SETTINGS)
    def test_subsample_per_class_counts(self, per_class, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(per_class * 3, 4))
        labels = np.repeat(np.arange(3), per_class)
        dataset = HARDataset(features=features, labels=labels)
        take = min(per_class, 7)
        small = dataset.subsample(take, per_class=True, rng=seed)
        _, counts = np.unique(small.labels, return_counts=True)
        assert np.all(counts == take)
