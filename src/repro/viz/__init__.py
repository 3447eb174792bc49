"""Matplotlib-free visualisation: PCA projections and ASCII plots."""

from repro.viz.projection import pca_project, project_embeddings_2d
from repro.viz.ascii import ascii_line_plot, ascii_scatter

__all__ = [
    "pca_project",
    "project_embeddings_2d",
    "ascii_line_plot",
    "ascii_scatter",
]
