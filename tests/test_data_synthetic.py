"""Tests for the synthetic HAR data generator."""

import numpy as np
import pytest

from repro.data.activities import Activity
from repro.data.sensors import default_sensor_suite
from repro.data.synthetic import (
    SyntheticSensorGenerator,
    default_signatures,
    make_feature_dataset,
)
from repro.exceptions import DataError


class TestSignatures:
    def test_all_activities_have_signatures(self):
        signatures = default_signatures()
        assert set(signatures) == set(Activity)

    def test_run_and_walk_are_adjacent_bands(self):
        signatures = default_signatures()
        walk, run = signatures[Activity.WALK], signatures[Activity.RUN]
        # Run is faster and stronger than Walk, but their per-window
        # distributions overlap (within roughly two standard deviations).
        assert run.locomotion_hz > walk.locomotion_hz
        assert run.accel_amplitude > walk.accel_amplitude
        gap = run.locomotion_hz - walk.locomotion_hz
        assert gap < 2 * (run.locomotion_hz_std + walk.locomotion_hz_std)

    def test_still_is_low_energy(self):
        signatures = default_signatures()
        assert signatures[Activity.STILL].accel_amplitude < 0.2


class TestGenerator:
    def test_window_shapes(self):
        generator = SyntheticSensorGenerator(seed=0)
        windows = generator.generate_windows(Activity.WALK, 7)
        suite = default_sensor_suite()
        assert windows.shape == (7, suite.window_length, suite.n_channels)

    def test_reproducible_with_seed(self):
        first = SyntheticSensorGenerator(seed=3).generate_windows(Activity.RUN, 4)
        second = SyntheticSensorGenerator(seed=3).generate_windows(Activity.RUN, 4)
        assert np.allclose(first, second)

    def test_different_activities_differ(self):
        generator = SyntheticSensorGenerator(seed=0)
        still = generator.generate_windows(Activity.STILL, 20)
        run = generator.generate_windows(Activity.RUN, 20)
        # Run has far more accelerometer energy than Still.
        assert run[:, :, 0].var() > 10 * still[:, :, 0].var()

    def test_generate_dataset_counts_and_labels(self):
        generator = SyntheticSensorGenerator(seed=1)
        windows, labels = generator.generate_dataset({Activity.RUN: 5, Activity.WALK: 3})
        assert windows.shape[0] == 8
        assert sorted(np.unique(labels).tolist()) == [int(Activity.RUN), int(Activity.WALK)]

    def test_generate_dataset_int_shortcut(self):
        generator = SyntheticSensorGenerator(seed=1)
        windows, labels = generator.generate_dataset(2)
        assert windows.shape[0] == 2 * len(Activity)

    def test_invalid_arguments(self):
        generator = SyntheticSensorGenerator(seed=0)
        with pytest.raises(DataError):
            generator.generate_windows(Activity.RUN, 0)


class TestMakeFeatureDataset:
    def test_shapes_and_labels(self):
        dataset = make_feature_dataset(samples_per_class=12, seed=0)
        assert dataset.features.shape == (60, 80)
        assert set(dataset.classes.tolist()) == {int(a) for a in Activity}
        assert dataset.label_names[int(Activity.RUN)] == "Run"

    def test_normalized_features(self):
        dataset = make_feature_dataset(samples_per_class=30, seed=0)
        assert abs(dataset.features.mean()) < 0.1

    def test_every_feature_column_is_z_scored(self):
        features = make_feature_dataset(samples_per_class=10, seed=0).features
        assert np.allclose(features.mean(axis=0), 0.0, atol=1e-10)
        std = features.std(axis=0)
        assert np.all(np.isclose(std, 1.0) | np.isclose(std, 0.0))

    def test_subset_of_activities(self):
        dataset = make_feature_dataset({Activity.RUN: 10, Activity.WALK: 6}, seed=0)
        assert set(dataset.classes.tolist()) == {int(Activity.RUN), int(Activity.WALK)}
        assert np.sum(dataset.labels == int(Activity.RUN)) == 10
        assert np.sum(dataset.labels == int(Activity.WALK)) == 6
        assert set(dataset.label_names) == {int(Activity.RUN), int(Activity.WALK)}

    def test_same_seed_same_features(self):
        first = make_feature_dataset(samples_per_class=8, seed=5)
        second = make_feature_dataset(samples_per_class=8, seed=5)
        other = make_feature_dataset(samples_per_class=8, seed=6)
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.labels, second.labels)
        assert not np.array_equal(first.features, other.features)

    def test_classes_are_separable_by_a_simple_rule(self):
        """A nearest-centroid classifier in feature space should beat chance easily."""
        dataset = make_feature_dataset(samples_per_class=60, seed=2)
        rng = np.random.default_rng(0)
        order = rng.permutation(dataset.n_samples)
        half = dataset.n_samples // 2
        train_idx, test_idx = order[:half], order[half:]
        centroids = {}
        for class_id in dataset.classes:
            mask = dataset.labels[train_idx] == class_id
            centroids[class_id] = dataset.features[train_idx][mask].mean(axis=0)
        prototypes = np.stack([centroids[c] for c in dataset.classes])
        distances = np.linalg.norm(
            dataset.features[test_idx][:, None, :] - prototypes[None, :, :], axis=2
        )
        predictions = dataset.classes[np.argmin(distances, axis=1)]
        accuracy = (predictions == dataset.labels[test_idx]).mean()
        assert accuracy > 0.6  # well above the 0.2 chance level

    def test_run_walk_are_the_hard_pair(self):
        """Run and Walk centroids should be closer than Run and Still centroids."""
        dataset = make_feature_dataset(samples_per_class=60, seed=3)
        centroid = {
            int(c): dataset.features[dataset.labels == c].mean(axis=0) for c in dataset.classes
        }
        run_walk = np.linalg.norm(centroid[int(Activity.RUN)] - centroid[int(Activity.WALK)])
        run_still = np.linalg.norm(centroid[int(Activity.RUN)] - centroid[int(Activity.STILL)])
        run_drive = np.linalg.norm(centroid[int(Activity.RUN)] - centroid[int(Activity.DRIVE)])
        assert run_walk < run_still
        assert run_walk < run_drive
