"""Tests for PCA projection and ASCII plotting."""

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.viz.ascii import ascii_line_plot, ascii_scatter
from repro.viz.projection import pca_project, project_embeddings_2d


class TestPCA:
    def test_projection_shape_and_variance_order(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(100, 3)) * np.array([10.0, 1.0, 0.1])
        projected, ratio = pca_project(data, n_components=2)
        assert projected.shape == (100, 2)
        assert ratio[0] > ratio[1]
        assert ratio.sum() <= 1.0 + 1e-9

    def test_first_component_captures_dominant_direction(self):
        rng = np.random.default_rng(1)
        data = np.zeros((50, 4))
        data[:, 2] = rng.normal(0, 5.0, size=50)
        projected, ratio = pca_project(data + rng.normal(0, 0.01, size=data.shape), 1)
        assert ratio[0] > 0.95
        assert projected.std() > 1.0

    def test_invalid_arguments(self):
        with pytest.raises(DataError):
            pca_project(np.zeros(5))
        with pytest.raises(DataError):
            pca_project(np.zeros((5, 2)), n_components=3)

    def test_project_embeddings_2d_groups_by_class(self):
        rng = np.random.default_rng(0)
        embeddings = rng.normal(size=(30, 6))
        labels = np.array([0] * 10 + [1] * 20)
        groups = project_embeddings_2d(embeddings, labels)
        assert set(groups) == {0, 1}
        assert groups[0].shape == (10, 2)
        assert groups[1].shape == (20, 2)

    def test_project_embeddings_label_mismatch(self):
        with pytest.raises(DataError):
            project_embeddings_2d(np.zeros((5, 3)), np.zeros(4))


class TestAsciiPlots:
    def test_line_plot_contains_series_markers_and_legend(self):
        text = ascii_line_plot(
            [1, 2, 3], {"pilote": [0.9, 0.92, 0.95], "re-trained": [0.85, 0.9, 0.91]}
        )
        assert "pilote" in text and "re-trained" in text
        assert "o" in text and "x" in text

    def test_line_plot_title(self):
        text = ascii_line_plot([0, 1], {"a": [1.0, 2.0]}, title="accuracy curve")
        assert text.startswith("accuracy curve")

    def test_line_plot_constant_series_does_not_crash(self):
        assert ascii_line_plot([1, 2], {"flat": [0.5, 0.5]})

    def test_line_plot_length_mismatch(self):
        with pytest.raises(DataError):
            ascii_line_plot([1, 2, 3], {"a": [1.0, 2.0]})

    def test_line_plot_empty_series(self):
        with pytest.raises(DataError):
            ascii_line_plot([1, 2], {})

    def test_scatter_renders_all_classes(self):
        rng = np.random.default_rng(0)
        points = {0: rng.normal(size=(10, 2)), 1: rng.normal(5, 1, size=(10, 2))}
        text = ascii_scatter(points, label_names={0: "Walk", 1: "Run"})
        assert "Walk" in text and "Run" in text

    def test_scatter_requires_2d_points(self):
        with pytest.raises(DataError):
            ascii_scatter({0: np.zeros((5, 3))})
