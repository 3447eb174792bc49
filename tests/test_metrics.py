"""Tests for classification, confusion, forgetting and embedding-quality metrics."""

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.metrics.classification import (
    accuracy,
    classification_report,
    precision_recall_f1,
)
from repro.metrics.confusion import ConfusionMatrix, confusion_matrix
from repro.metrics.embedding_quality import (
    class_separation_report,
    intra_inter_distance_ratio,
    silhouette_score,
)
from repro.metrics.forgetting import (
    average_incremental_accuracy,
    backward_transfer,
    new_class_accuracy,
    old_class_accuracy,
)


class TestClassification:
    def test_accuracy(self):
        assert accuracy([0, 1, 2], [0, 1, 1]) == pytest.approx(2 / 3)
        assert accuracy([1], [1]) == 1.0

    def test_accuracy_validation(self):
        with pytest.raises(DataError):
            accuracy([], [])
        with pytest.raises(DataError):
            accuracy([0, 1], [0])

    def test_precision_recall_f1(self):
        report = precision_recall_f1([0, 0, 1, 1], [0, 1, 1, 1])
        assert report[1]["precision"] == pytest.approx(2 / 3)
        assert report[1]["recall"] == pytest.approx(1.0)
        assert report[0]["recall"] == pytest.approx(0.5)

    def test_classification_report_contains_classes(self):
        report = classification_report([0, 1], [0, 1], label_names={0: "Walk", 1: "Run"})
        assert "Walk" in report and "Run" in report and "accuracy" in report

    def test_perfect_scores(self):
        y = [0, 1, 2, 3]
        assert accuracy(y, y) == 1.0


class TestConfusionMatrix:
    def test_counts(self):
        matrix = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        assert matrix.tolist() == [[1, 1], [0, 2]]

    def test_explicit_class_order(self):
        matrix = confusion_matrix([2, 4], [2, 2], classes=[2, 4])
        assert matrix[1, 0] == 1

    def test_unknown_label_raises(self):
        with pytest.raises(DataError):
            confusion_matrix([0, 5], [0, 0], classes=[0, 1])

    def test_confusion_matrix_object(self):
        cm = ConfusionMatrix.from_predictions(
            [0, 0, 1, 1, 1], [0, 1, 1, 1, 0], label_names={0: "Walk", 1: "Run"}
        )
        assert cm.accuracy() == pytest.approx(3 / 5)
        assert cm.count(0, 1) == 1
        assert cm.misclassification_rate(1, 0) == pytest.approx(1 / 3)
        text = cm.to_text()
        assert "Walk" in text and "Run" in text

    def test_length_mismatch_raises(self):
        with pytest.raises(DataError):
            confusion_matrix([0, 1], [0])


class TestForgetting:
    def test_old_and_new_class_accuracy(self):
        y_true = np.array([0, 0, 1, 2, 2])
        y_pred = np.array([0, 1, 1, 2, 0])
        assert old_class_accuracy(y_true, y_pred, [0, 1]) == pytest.approx(2 / 3)
        assert new_class_accuracy(y_true, y_pred, [2]) == pytest.approx(0.5)

    def test_missing_classes_raise(self):
        with pytest.raises(DataError):
            old_class_accuracy([1, 1], [1, 1], [5])
        with pytest.raises(DataError):
            new_class_accuracy([1, 1], [1, 1], [5])

    def test_backward_transfer(self):
        assert backward_transfer([0.9, 0.8, 0.7]) == pytest.approx(-0.15)
        with pytest.raises(DataError):
            backward_transfer([0.9])

    def test_average_incremental_accuracy(self):
        assert average_incremental_accuracy([0.8, 0.9]) == pytest.approx(0.85)
        with pytest.raises(DataError):
            average_incremental_accuracy([])


class TestEmbeddingQuality:
    def _separated(self, gap):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, size=(40, 4))
        b = rng.normal(gap, 1.0, size=(40, 4))
        embeddings = np.concatenate([a, b])
        labels = np.array([0] * 40 + [1] * 40)
        return embeddings, labels

    def test_silhouette_increases_with_separation(self):
        close = silhouette_score(*self._separated(1.0))
        far = silhouette_score(*self._separated(10.0))
        assert far > close
        assert far > 0.7

    def test_silhouette_subsampling_path(self):
        embeddings, labels = self._separated(5.0)
        assert silhouette_score(embeddings, labels, max_samples=20) > 0.0

    def test_intra_inter_ratio_decreases_with_separation(self):
        close = intra_inter_distance_ratio(*self._separated(1.0))
        far = intra_inter_distance_ratio(*self._separated(10.0))
        assert far < close

    def test_report_keys(self):
        report = class_separation_report(*self._separated(3.0))
        assert set(report) == {"silhouette", "intra_inter_ratio"}

    def test_requires_two_classes(self):
        embeddings = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(DataError):
            silhouette_score(embeddings, np.zeros(10))
        with pytest.raises(DataError):
            intra_inter_distance_ratio(embeddings, np.zeros(10))

    def test_shape_validation(self):
        with pytest.raises(DataError):
            silhouette_score(np.zeros((5, 2)), np.zeros(3))
