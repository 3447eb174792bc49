"""Tests for pair sampling, prototypes and the NCM classifier."""

import numpy as np
import pytest

from repro.core.ncm import NCMClassifier
from repro.core.pairs import PairSampler, class_membership
from repro.core.prototypes import PrototypeStore
from repro.exceptions import DataError, NotFittedError


class TestPairSampler:
    def test_all_strategy_generates_all_pairs(self):
        labels = np.array([0, 0, 1, 1])
        pairs = PairSampler(max_pairs=100, rng=0).sample(labels)
        assert pairs.left.size == 6
        assert pairs.same_class.sum() == 2  # (0,1) and (2,3)

    def test_pair_labels_are_correct(self):
        labels = np.array([0, 1])
        pairs = PairSampler(rng=0).sample(labels)
        assert pairs.same_class.tolist() == [0.0]

    def test_max_pairs_cap(self):
        labels = np.zeros(30, dtype=int)
        pairs = PairSampler(max_pairs=10, rng=0).sample(labels)
        assert pairs.left.size == 10

    def test_new_centred_only_involves_new_classes(self):
        labels = np.array([0, 0, 0, 5, 5])
        pairs = PairSampler(max_pairs=100, rng=0).sample(
            labels, new_classes={5}
        )
        involves_new = (labels[pairs.left] == 5) | (labels[pairs.right] == 5)
        assert involves_new.all()
        assert pairs.left.size == 7  # 3*2 cross pairs + 1 new-new pair

    def test_without_new_classes_every_pair_is_drawn(self):
        labels = np.array([0, 0, 0, 5, 5])
        sampler = PairSampler(max_pairs=100, rng=0)
        for new_classes in (None, set()):
            pairs = sampler.sample(labels, new_classes=new_classes)
            assert pairs.left.size == 10  # 5 choose 2

    def test_new_centred_falls_back_when_no_new_samples(self):
        labels = np.array([0, 0, 1])
        pairs = PairSampler(max_pairs=100, rng=0).sample(
            labels, new_classes={9}
        )
        assert pairs.left.size == 3  # falls back to all pairs

    def test_requires_two_samples(self):
        with pytest.raises(DataError):
            PairSampler().sample(np.array([0]))

    def test_invalid_construction(self):
        with pytest.raises(DataError):
            PairSampler(max_pairs=0)


class TestClassMembership:
    @pytest.mark.parametrize("labels, classes", [
        (np.array([0, 3, 1, 3, 7]), {3, 7}),
        (np.array([0, 3, 1, 3, 7]), {9, 12}),
        (np.array([2, 2]), {-1, 2}),
        (np.array([5, 0], dtype=np.uint8), {0}),
        (np.array([-2, 4, 1]), {-2, 1}),
        (np.array([1 << 20, 4]), {1 << 20}),
        (np.array([0.5, 2.0]), {2}),
        (np.array([], dtype=np.int64), {1}),
        (np.array([1, 2]), set()),
        # labels past the table's ends, and shifts that wrap around int64
        (np.array([0, 2, 3, 4, 9, -7]), {2, 3}),
        (np.array([np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0, 1]), {0, 1}),
        (np.array([np.iinfo(np.int64).min + 3, 65_535]), {65_535}),
        (np.array([3, -1, 2], dtype=np.int8), {2, 300}),
        (np.array([7, 3], dtype=np.uint64), {3}),
        (np.array([True, False]), {1}),
        (np.array([[0, 4], [4, 1]]), {4}),
    ])
    def test_matches_isin(self, labels, classes):
        expected = np.isin(labels, np.asarray(sorted(classes), dtype=np.int64))
        got = class_membership(labels, classes)
        assert got.dtype == bool and got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_a_class_set_is_resolved_once(self):
        """Every call with an equal class set reads one cached, read-only
        table, however its labels range."""
        from repro.core.pairs import _lookup_table

        _lookup_table.cache_clear()
        for labels in ([0, 3, 1], [9, 3, -4], [1 << 40, 3]):
            class_membership(np.array(labels), {3, 1})
        class_membership(np.array([2]), [np.int64(1), 3.0])
        info = _lookup_table.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        _, table = _lookup_table(frozenset({1, 3}))
        with pytest.raises(ValueError):
            table[0] = True


class TestPrototypes:
    def test_store_set_get_contains(self):
        store = PrototypeStore()
        store.set(2, [1.0, 2.0])
        assert 2 in store
        assert np.allclose(store.get(2), [1.0, 2.0])
        assert store.classes == [2]
        with pytest.raises(KeyError):
            store.get(5)

    def test_store_dimension_consistency(self):
        store = PrototypeStore()
        store.set(0, [1.0, 2.0])
        with pytest.raises(DataError):
            store.set(1, [1.0, 2.0, 3.0])

    def test_store_as_matrix(self):
        store = PrototypeStore()
        store.set(1, [0.0, 4.0])
        store.set(0, [1.0, 0.0])
        matrix = store.as_matrix()
        assert matrix.shape == (2, 2)
        assert np.allclose(matrix[0], [1.0, 0.0])

    def test_store_as_matrix_empty_raises(self):
        with pytest.raises(NotFittedError):
            PrototypeStore().as_matrix()

    def test_store_nbytes(self):
        store = PrototypeStore()
        store.set(0, np.zeros(8))
        store.set(1, np.zeros(8))
        assert store.nbytes() == 2 * 8 * 4
        assert store.classes == [0, 1]


class TestNCMClassifier:
    def _fitted(self):
        return NCMClassifier().fit({0: np.array([0.0, 0.0]), 1: np.array([10.0, 0.0])})

    def test_predicts_nearest_prototype(self):
        classifier = self._fitted()
        predictions = classifier.predict(np.array([[1.0, 0.0], [9.0, 1.0]]))
        assert predictions.tolist() == [0, 1]

    def test_predict_single_vector(self):
        assert self._fitted().predict(np.array([8.0, 0.0])).tolist() == [1]

    def test_distances_shape(self):
        assert self._fitted().distances(np.zeros((3, 2))).shape == (3, 2)

    def test_vectorized_predict_maps_noncontiguous_class_ids(self):
        """Regression: predict uses a cached class-id ``take``, not a Python loop.

        Class ids are deliberately non-contiguous and unsorted-by-insertion so
        an argmin-index-as-class-id bug would be caught immediately.
        """
        rng = np.random.default_rng(0)
        prototypes = {17: np.array([0.0, 0.0]), 3: np.array([10.0, 0.0]),
                      42: np.array([0.0, 10.0])}
        classifier = NCMClassifier().fit(prototypes)
        queries = rng.normal(scale=0.5, size=(64, 2)) + np.array([10.0, 0.0])
        predictions = classifier.predict(queries)
        # Reference: per-row loop over the distance matrix (the seed path).
        distances = classifier.distances(queries)
        expected = np.asarray(
            [classifier.classes_[int(index)] for index in np.argmin(distances, axis=1)],
            dtype=np.int64,
        )
        assert np.array_equal(predictions, expected)
        assert set(predictions.tolist()) <= {3, 17, 42}

    def test_prototype_matrix_cache_refreshes_on_store_mutation(self):
        store = PrototypeStore()
        store.set(0, np.array([0.0, 0.0]))
        store.set(1, np.array([4.0, 0.0]))
        classifier = NCMClassifier().fit(store)
        assert classifier.predict(np.array([[3.5, 0.0]])).tolist() == [1]
        store.set(1, np.array([100.0, 0.0]))  # move prototype far away
        assert classifier.predict(np.array([[3.5, 0.0]])).tolist() == [0]

    def test_prototype_matrix_cache_follows_dtype_policy(self):
        """Regression: a precision switch must rebuild the cached matrix."""
        from repro.backend import precision

        classifier = self._fitted()
        assert classifier.prototype_matrix().dtype == np.float64
        with precision("edge"):
            assert classifier.prototype_matrix().dtype == np.float32
            assert classifier.distances(np.zeros((2, 2))).dtype == np.float32
        assert classifier.prototype_matrix().dtype == np.float64

    def test_fit_from_prototype_store(self):
        store = PrototypeStore()
        store.set(7, [0.0, 0.0])
        store.set(9, [5.0, 5.0])
        classifier = NCMClassifier().fit(store)
        assert classifier.classes_ == [7, 9]
        assert classifier.predict(np.array([[4.0, 4.0]])).tolist() == [9]

    def test_not_fitted_errors(self):
        with pytest.raises(NotFittedError):
            NCMClassifier().predict(np.zeros((1, 2)))
        with pytest.raises(NotFittedError):
            NCMClassifier().classes_

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DataError):
            self._fitted().predict(np.zeros((2, 3)))

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            NCMClassifier().fit({})
        with pytest.raises(DataError):
            NCMClassifier().fit([1, 2, 3])
