"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import DataError, ShapeError
from repro.utils.validation import (
    check_array,
    check_feature_matrix,
    check_finite,
    check_labels,
    check_probability,
)


class TestCheckArray:
    def test_accepts_lists(self):
        result = check_array([[1, 2], [3, 4]], ndim=2)
        assert result.shape == (2, 2)
        assert result.dtype == np.float64

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            check_array([1, 2, 3], ndim=2)

    def test_rejects_empty_by_default(self):
        with pytest.raises(DataError):
            check_array([])

    def test_rejects_non_numeric(self):
        with pytest.raises(DataError):
            check_array([["a", "b"]])

    def test_float64_input_is_returned_without_a_copy(self):
        original = np.ones((2, 2))
        assert check_array(original, ndim=2) is original


class TestCheckFinite:
    def test_passes_finite(self):
        array = np.ones(3)
        assert check_finite(array) is array

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            check_finite(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(DataError):
            check_finite(np.array([1.0, np.inf]))


class TestCheckLabels:
    def test_integer_labels_pass(self):
        labels = check_labels([0, 1, 2])
        assert labels.dtype == np.int64

    def test_float_integer_values_are_cast(self):
        labels = check_labels(np.array([0.0, 1.0, 2.0]))
        assert labels.dtype == np.int64

    def test_non_integer_floats_rejected(self):
        with pytest.raises(DataError):
            check_labels([0.5, 1.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            check_labels([0, 1], n_samples=3)

    def test_2d_rejected(self):
        with pytest.raises(ShapeError):
            check_labels([[0], [1]])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            check_labels([])


class TestScalarChecks:
    def test_check_probability_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0
        with pytest.raises(DataError):
            check_probability(1.5)
        with pytest.raises(DataError):
            check_probability(-0.1)


class TestCompositeChecks:
    def test_feature_matrix_with_labels(self):
        features, labels = check_feature_matrix([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        assert features.shape == (2, 2)
        assert labels.tolist() == [0, 1]

    def test_feature_matrix_label_mismatch(self):
        with pytest.raises(ShapeError):
            check_feature_matrix([[1.0, 2.0]], [0, 1])

    def test_feature_matrix_rejects_nan(self):
        with pytest.raises(DataError):
            check_feature_matrix([[np.nan, 1.0]], [0])
