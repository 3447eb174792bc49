"""Property-based tests for core PILOTE data structures and metrics invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.exemplars import herding_selection
from repro.core.ncm import NCMClassifier
from repro.core.pairs import PairSampler
from repro.metrics.classification import accuracy
from repro.metrics.confusion import confusion_matrix

SETTINGS = dict(max_examples=25, deadline=None)

labels_strategy = hnp.arrays(
    np.int64, st.integers(4, 30), elements=st.integers(min_value=0, max_value=3)
)


class TestPairSamplerProperties:
    @given(labels_strategy)
    @settings(**SETTINGS)
    def test_pair_labels_consistent_with_classes(self, labels):
        sampler = PairSampler(strategy="all", max_pairs=200, rng=0)
        pairs = sampler.sample(labels)
        expected = (labels[pairs.left] == labels[pairs.right]).astype(float)
        assert np.array_equal(pairs.same_class, expected)

    @given(labels_strategy, st.integers(1, 50))
    @settings(**SETTINGS)
    def test_max_pairs_respected(self, labels, max_pairs):
        sampler = PairSampler(strategy="all", max_pairs=max_pairs, rng=0)
        pairs = sampler.sample(labels)
        assert pairs.left.size <= max_pairs

    @given(labels_strategy)
    @settings(**SETTINGS)
    def test_no_self_pairs(self, labels):
        pairs = PairSampler(strategy="all", max_pairs=500, rng=0).sample(labels)
        assert np.all(pairs.left != pairs.right)


class TestPrototypeProperties:
    @given(st.integers(2, 10), st.integers(1, 8))
    @settings(**SETTINGS)
    def test_herding_prefix_property(self, n_exemplars, seed):
        """The first k herded exemplars are the same regardless of the total budget."""
        rng = np.random.default_rng(seed)
        embeddings = rng.normal(size=(20, 4))
        small = herding_selection(embeddings, embeddings, n_exemplars)
        large = herding_selection(embeddings, embeddings, min(n_exemplars + 5, 20))
        assert np.array_equal(small, large[: len(small)])


class TestNCMProperties:
    @given(st.integers(2, 5), st.integers(2, 8), st.integers(0, 100))
    @settings(**SETTINGS)
    def test_prototype_points_classify_to_their_own_class(self, n_classes, dim, seed):
        rng = np.random.default_rng(seed)
        prototypes = {c: rng.normal(c * 10.0, 0.1, size=dim) for c in range(n_classes)}
        classifier = NCMClassifier().fit(prototypes)
        matrix = np.stack([prototypes[c] for c in range(n_classes)])
        predictions = classifier.predict(matrix)
        assert predictions.tolist() == list(range(n_classes))


class TestMetricProperties:
    @given(labels_strategy)
    @settings(**SETTINGS)
    def test_accuracy_of_identical_predictions_is_one(self, labels):
        assert accuracy(labels, labels) == 1.0

    @given(labels_strategy, st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_confusion_matrix_totals(self, labels, seed):
        rng = np.random.default_rng(seed)
        predictions = rng.integers(0, 4, size=labels.shape[0])
        matrix = confusion_matrix(labels, predictions, classes=[0, 1, 2, 3])
        assert matrix.sum() == labels.shape[0]
        assert np.trace(matrix) == int(np.sum(labels == predictions))
        # Row sums equal per-class support.
        for class_id in range(4):
            assert matrix[class_id].sum() == int(np.sum(labels == class_id))

    @given(labels_strategy, st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_accuracy_matches_confusion_trace(self, labels, seed):
        rng = np.random.default_rng(seed)
        predictions = rng.integers(0, 4, size=labels.shape[0])
        matrix = confusion_matrix(labels, predictions, classes=[0, 1, 2, 3])
        assert accuracy(labels, predictions) == pytest.approx(
            np.trace(matrix) / labels.shape[0]
        )
