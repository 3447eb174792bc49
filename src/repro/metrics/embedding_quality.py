"""Embedding-space quality metrics.

Figure 5 of the paper argues visually that PILOTE's embedding space keeps
classes better separated than the re-trained/pre-trained models.  Without a
plotting backend the same claim is made quantitative here: silhouette score and
the intra/inter-class distance ratio.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.exceptions import DataError


def _validate(embeddings: np.ndarray, labels: np.ndarray):
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    if embeddings.ndim != 2:
        raise DataError(f"embeddings must be 2-D, got shape {embeddings.shape}")
    if labels.shape[0] != embeddings.shape[0]:
        raise DataError("labels and embeddings must have the same length")
    if np.unique(labels).size < 2:
        raise DataError("at least two classes are required")
    return embeddings, labels


#: Points the silhouette is computed over at most (a strided subsample).
MAX_SAMPLES = 2000


def silhouette_score(embeddings: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient over (at most :data:`MAX_SAMPLES`) points.

    Values near 1 indicate compact, well-separated clusters; values near 0 (or
    negative) indicate overlapping classes.
    """
    embeddings, labels = _validate(embeddings, labels)
    count = embeddings.shape[0]
    if count > MAX_SAMPLES:
        step = count // MAX_SAMPLES + 1
        embeddings = embeddings[::step]
        labels = labels[::step]
        count = embeddings.shape[0]
    distances = np.linalg.norm(embeddings[:, None, :] - embeddings[None, :, :], axis=2)
    unique = np.unique(labels)
    scores = np.zeros(count)
    for index in range(count):
        own = labels[index]
        own_mask = labels == own
        same_count = own_mask.sum() - 1
        if same_count == 0:
            scores[index] = 0.0
            continue
        a = distances[index, own_mask].sum() / same_count
        b = np.inf
        for other in unique:
            if other == own:
                continue
            other_mask = labels == other
            b = min(b, distances[index, other_mask].mean())
        scores[index] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


def intra_inter_distance_ratio(embeddings: np.ndarray, labels: np.ndarray) -> float:
    """Mean intra-class distance divided by mean inter-centroid distance (lower = better)."""
    embeddings, labels = _validate(embeddings, labels)
    unique = np.unique(labels)
    centroids = np.stack([embeddings[labels == c].mean(axis=0) for c in unique], axis=0)
    intra = []
    for position, class_id in enumerate(unique):
        rows = embeddings[labels == class_id]
        intra.append(np.linalg.norm(rows - centroids[position], axis=1).mean())
    pairwise = np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2)
    upper = pairwise[np.triu_indices(len(unique), k=1)]
    inter = upper.mean() if upper.size else 0.0
    if inter == 0:
        return float("inf")
    return float(np.mean(intra) / inter)


def class_separation_report(embeddings: np.ndarray, labels: np.ndarray) -> Dict[str, float]:
    """Silhouette + intra/inter ratio in one dictionary (used by the Figure 5 experiment)."""
    return {
        "silhouette": silhouette_score(embeddings, labels),
        "intra_inter_ratio": intra_inter_distance_ratio(embeddings, labels),
    }
