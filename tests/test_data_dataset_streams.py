"""Tests for HARDataset, splitting and incremental scenarios."""

import numpy as np
import pytest

from repro.data.activities import Activity
from repro.data.dataset import HARDataset, train_val_test_split
from repro.data.streams import build_incremental_scenario
from repro.exceptions import DataError


def _dataset(n_per_class=30, n_classes=4, n_features=6, seed=0):
    rng = np.random.default_rng(seed)
    features = []
    labels = []
    for class_id in range(n_classes):
        features.append(rng.normal(class_id, 1.0, size=(n_per_class, n_features)))
        labels.append(np.full(n_per_class, class_id))
    return HARDataset(
        features=np.concatenate(features),
        labels=np.concatenate(labels),
        label_names={i: f"activity{i}" for i in range(n_classes)},
    )


class TestHARDataset:
    def test_basic_properties(self):
        dataset = _dataset()
        assert dataset.n_samples == 120
        assert dataset.n_features == 6
        assert len(dataset) == 120
        assert dataset.classes.tolist() == [0, 1, 2, 3]
        assert dataset.class_name(1) == "activity1"
        assert dataset.class_name(99) == "class_99"

    def test_select_classes(self):
        dataset = _dataset()
        selected = dataset.select_classes([0, 2])
        assert set(selected.classes.tolist()) == {0, 2}

    def test_select_missing_class_raises(self):
        with pytest.raises(DataError):
            _dataset().select_classes([99])

    def test_class_subset(self):
        dataset = _dataset()
        assert dataset.class_subset(2).shape == (30, 6)
        with pytest.raises(DataError):
            dataset.class_subset(42)

    def test_subsample_per_class(self):
        dataset = _dataset()
        small = dataset.subsample(5, per_class=True, rng=0)
        _, counts = np.unique(small.labels, return_counts=True)
        assert np.all(counts == 5)

    def test_subsample_global(self):
        dataset = _dataset()
        assert dataset.subsample(17, rng=0).n_samples == 17

    def test_subsample_more_than_available(self):
        dataset = _dataset(n_per_class=3)
        assert dataset.subsample(100, per_class=True, rng=0).n_samples == 12

    def test_validation_of_inputs(self):
        with pytest.raises(DataError):
            HARDataset(features=np.ones((3, 2)), labels=np.array([0, 1]))
        with pytest.raises(DataError):
            HARDataset(features=np.array([[np.nan, 1.0]]), labels=np.array([0]))


class TestSplits:
    def test_paper_split_proportions(self):
        dataset = _dataset(n_per_class=50)
        splits = train_val_test_split(dataset, test_fraction=0.3, validation_fraction=0.2, rng=0)
        train_n, val_n, test_n = (
            splits.train.n_samples, splits.validation.n_samples, splits.test.n_samples
        )
        assert train_n + val_n + test_n == dataset.n_samples
        assert abs(test_n - 0.3 * dataset.n_samples) <= 4
        assert abs(val_n - 0.2 * 0.7 * dataset.n_samples) <= 4

    def test_stratified_split_covers_all_classes(self):
        dataset = _dataset(n_per_class=20)
        splits = train_val_test_split(dataset, rng=1)
        for part in (splits.train, splits.validation, splits.test):
            assert set(part.classes.tolist()) == {0, 1, 2, 3}

    @pytest.mark.parametrize("test_fraction, validation_fraction",
                             [(0.3, 0.2), (0.5, 0.0), (0.1, 0.5)])
    def test_every_class_is_cut_by_the_fractions(self, test_fraction, validation_fraction):
        sizes = {0: 40, 1: 13, 2: 7}
        dataset = HARDataset(
            features=np.arange(60.0).reshape(-1, 1),
            labels=np.repeat(list(sizes), list(sizes.values())),
        )
        splits = train_val_test_split(dataset, test_fraction=test_fraction,
                                      validation_fraction=validation_fraction, rng=3)
        for class_id, size in sizes.items():
            test = int(round(test_fraction * size))
            validation = int(round(validation_fraction * (size - test)))
            counts = [int((part.labels == class_id).sum())
                      for part in (splits.train, splits.validation, splits.test)]
            if validation_fraction == 0.0 and class_id == 0:
                # an empty validation set borrows one training row
                assert counts == [size - test - 1, 1, test]
            else:
                assert counts == [size - test - validation, validation, test]

    def test_partitions_are_disjoint(self):
        dataset = _dataset(n_per_class=20)
        splits = train_val_test_split(dataset, rng=2)
        # Rows are unique random vectors, so row-wise comparison detects overlap.
        train_rows = {tuple(row) for row in splits.train.features}
        test_rows = {tuple(row) for row in splits.test.features}
        assert not train_rows & test_rows

    def test_split_is_reproducible(self):
        dataset = _dataset()
        first = train_val_test_split(dataset, rng=5)
        second = train_val_test_split(dataset, rng=5)
        assert np.allclose(first.test.features, second.test.features)

    def test_invalid_fractions(self):
        dataset = _dataset()
        with pytest.raises(DataError):
            train_val_test_split(dataset, test_fraction=0.0)
        with pytest.raises(DataError):
            train_val_test_split(dataset, validation_fraction=1.0)

    def test_validation_never_empty(self):
        dataset = _dataset(n_per_class=3)
        splits = train_val_test_split(dataset, validation_fraction=0.0, rng=0)
        assert splits.validation.n_samples >= 1


class TestIncrementalScenario:
    def test_scenario_structure(self):
        dataset = _dataset(n_per_class=40)
        scenario = build_incremental_scenario(dataset, [3], rng=0)
        assert scenario.old_classes == [0, 1, 2]
        assert scenario.new_classes == [3]
        assert scenario.all_classes == [0, 1, 2, 3]
        assert set(scenario.old_train.classes.tolist()) == {0, 1, 2}
        assert set(scenario.new_train.classes.tolist()) == {3}
        assert set(scenario.test.classes.tolist()) == {0, 1, 2, 3}

    def test_new_class_sample_cap(self):
        dataset = _dataset(n_per_class=40)
        scenario = build_incremental_scenario(dataset, [3], new_class_samples=5, rng=0)
        assert scenario.new_train.n_samples == 5

    def test_errors(self):
        dataset = _dataset()
        with pytest.raises(DataError):
            build_incremental_scenario(dataset, [])
        with pytest.raises(DataError):
            build_incremental_scenario(dataset, [99])
        with pytest.raises(DataError):
            build_incremental_scenario(dataset, [0, 1, 2, 3])

    def test_multiple_new_classes(self):
        dataset = _dataset(n_per_class=30)
        scenario = build_incremental_scenario(dataset, [2, 3], rng=1)
        assert scenario.new_classes == [2, 3]
        assert scenario.old_classes == [0, 1]

    def test_real_activity_scenario(self, har_dataset):
        scenario = build_incremental_scenario(har_dataset, [Activity.RUN], rng=0)
        assert int(Activity.RUN) in scenario.new_classes
        assert int(Activity.RUN) not in scenario.old_classes
