"""Tests for the synthetic HAR data generator."""

import hashlib

import numpy as np
import pytest

from repro.data import synthetic
from repro.data.activities import Activity
from repro.data.sensors import default_sensor_suite
from repro.data.synthetic import (
    DATASET_CACHE_SIZE,
    SyntheticSensorGenerator,
    default_signatures,
    make_feature_dataset,
)
from repro.exceptions import DataError


def cold_build(samples_per_class, seed):
    """``make_feature_dataset`` with an empty cache, so the corpus is generated."""
    synthetic._DATASET_CACHE.clear()
    return make_feature_dataset(samples_per_class, seed=seed)


def sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


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
        first = cold_build(samples_per_class=8, seed=5)
        second = cold_build(samples_per_class=8, seed=5)
        other = cold_build(samples_per_class=8, seed=6)
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


class TestDatasetCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        synthetic._DATASET_CACHE.clear()
        yield
        synthetic._DATASET_CACHE.clear()

    @pytest.mark.parametrize(
        "samples_per_class, seed, features_sha, labels_sha",
        [
            (
                8,
                5,
                "2070cf5b1edda9a0fb3a53ba8239f480d47e6fb965f169048d4893a202df0a4f",
                "54cea35f96db778a7fb1f68c4ade37e6170e1af2374c4b0f8490de7b99f5abea",
            ),
            (
                25,
                42,
                "18a77a59252a17d408b3de8d982a8d1bcafd2948480cae95e9f1c5e19554916f",
                "4fb323abe5ee90c5a74489d83e36c23ef5c3899a9c83b71a4c360b68288407b3",
            ),
        ],
    )
    def test_corpus_bytes_are_pinned(self, samples_per_class, seed, features_sha, labels_sha):
        dataset = make_feature_dataset(samples_per_class, seed=seed)
        assert sha256(dataset.features) == features_sha
        assert sha256(dataset.labels) == labels_sha

    def test_hit_equals_cold_build(self):
        cold = make_feature_dataset(12, seed=4)
        hit = make_feature_dataset(12, seed=4)
        assert len(synthetic._DATASET_CACHE) == 1
        assert np.array_equal(hit.features, cold.features)
        assert np.array_equal(hit.labels, cold.labels)
        assert hit.label_names == cold.label_names
        assert hit.features is not cold.features

    def test_int_counts_and_their_mapping_share_an_entry(self):
        make_feature_dataset(12, seed=4)
        make_feature_dataset({activity: 12 for activity in default_signatures()}, seed=4)
        assert len(synthetic._DATASET_CACHE) == 1

    def test_writes_into_a_returned_dataset_do_not_reach_the_next_hit(self):
        first = make_feature_dataset(12, seed=4)
        expected_features = first.features.copy()
        expected_labels = first.labels.copy()
        first.features[:] = 0.0
        first.labels[:] = -1
        first.label_names.clear()
        second = make_feature_dataset(12, seed=4)
        assert np.array_equal(second.features, expected_features)
        assert np.array_equal(second.labels, expected_labels)
        assert second.label_names[int(Activity.RUN)] == "Run"

    def test_generator_seed_ends_where_a_cold_build_leaves_it(self):
        cold_rng = np.random.default_rng(123)
        cold = make_feature_dataset(12, seed=cold_rng)
        hit_rng = np.random.default_rng(123)
        hit = make_feature_dataset(12, seed=hit_rng)
        assert len(synthetic._DATASET_CACHE) == 1
        assert np.array_equal(hit.features, cold.features)
        assert hit_rng.bit_generator.state == cold_rng.bit_generator.state
        assert np.array_equal(hit_rng.integers(0, 2**62, 8), cold_rng.integers(0, 2**62, 8))
        assert np.array_equal(hit_rng.normal(size=8), cold_rng.normal(size=8))

    def test_generator_state_is_part_of_the_key(self):
        rng = np.random.default_rng(123)
        first = make_feature_dataset(12, seed=rng)
        # The generator has moved on, so the same object is now a new seed.
        second = make_feature_dataset(12, seed=rng)
        assert len(synthetic._DATASET_CACHE) == 2
        assert not np.array_equal(first.features, second.features)

    def test_none_seed_is_never_cached(self):
        make_feature_dataset(12, seed=None)
        make_feature_dataset(12, seed=None)
        assert len(synthetic._DATASET_CACHE) == 0

    def test_cache_stays_within_its_bound(self):
        for seed in range(DATASET_CACHE_SIZE + 3):
            make_feature_dataset(4, seed=seed)
            assert len(synthetic._DATASET_CACHE) <= DATASET_CACHE_SIZE
        assert len(synthetic._DATASET_CACHE) == DATASET_CACHE_SIZE
        # Least recently used entries go first: the three oldest seeds.
        seeds = [key[1] for key in synthetic._DATASET_CACHE]
        assert seeds == [("int", seed) for seed in range(3, DATASET_CACHE_SIZE + 3)]
