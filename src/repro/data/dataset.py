"""Dataset containers and splitting utilities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.utils.rng import RandomState, resolve_rng
from repro.utils.validation import check_feature_matrix


@dataclass
class HARDataset:
    """A labelled feature dataset (rows = windows, columns = features).

    Attributes
    ----------
    features:
        ``(n_samples, n_features)`` feature matrix.
    labels:
        ``(n_samples,)`` integer class ids.
    label_names:
        Optional mapping from class id to display name.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: Dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features, self.labels = check_feature_matrix(self.features, self.labels)

    # ------------------------------------------------------------------ #
    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def classes(self) -> np.ndarray:
        """Sorted unique class ids present in the dataset."""
        return np.unique(self.labels)

    def __len__(self) -> int:
        return self.n_samples

    def class_name(self, class_id: int) -> str:  # repro: noqa[repro-unused] examples/quickstart.py
        """Display name of a class (falls back to ``class_<id>``)."""
        return self.label_names.get(int(class_id), f"class_{int(class_id)}")

    # ------------------------------------------------------------------ #
    def select_classes(self, classes: Iterable[int]) -> "HARDataset":
        """Return the sub-dataset containing only the given classes."""
        wanted = set(int(c) for c in classes)
        if not wanted:
            raise DataError("select_classes requires at least one class")
        mask = np.isin(self.labels, sorted(wanted))
        if not mask.any():
            raise DataError(f"none of the classes {sorted(wanted)} are present in the dataset")
        return HARDataset(
            features=self.features[mask],
            labels=self.labels[mask],
            label_names=dict(self.label_names),
        )

    def class_subset(self, class_id: int) -> np.ndarray:
        """Feature rows of a single class."""
        mask = self.labels == int(class_id)
        if not mask.any():
            raise DataError(f"class {class_id} is not present in the dataset")
        return self.features[mask]

    def subsample(
        self, n_samples: int, *, per_class: bool = False, rng: RandomState = None
    ) -> "HARDataset":
        """Random subsample of the dataset (optionally stratified per class)."""
        if n_samples <= 0:
            raise DataError(f"n_samples must be positive, got {n_samples}")
        generator = resolve_rng(rng)
        if per_class:
            indices: List[np.ndarray] = []
            for class_id in self.classes:
                class_indices = np.flatnonzero(self.labels == class_id)
                take = min(n_samples, class_indices.size)
                indices.append(generator.choice(class_indices, size=take, replace=False))
            chosen = np.concatenate(indices)
        else:
            take = min(n_samples, self.n_samples)
            chosen = generator.choice(self.n_samples, size=take, replace=False)
        chosen.sort()
        return HARDataset(
            features=self.features[chosen],
            labels=self.labels[chosen],
            label_names=dict(self.label_names),
        )


@dataclass
class DatasetSplits:
    """Train / validation / test partition of a :class:`HARDataset`."""

    train: HARDataset
    validation: HARDataset
    test: HARDataset


#: Share of each class held out as the test set (the paper's 30%).
TEST_FRACTION = 0.3
#: Share of each class's remaining rows kept for validation (the paper's 0.2).
VALIDATION_FRACTION = 0.2


def train_val_test_split(dataset: HARDataset, *, rng: RandomState = None) -> DatasetSplits:
    """Split a dataset following the paper's protocol.

    Each class is cut on its own (stratified): :data:`TEST_FRACTION` of its
    rows go to the test set, then :data:`VALIDATION_FRACTION` of the rest to
    the validation set, which serves both pre-training and incremental
    training.
    """
    generator = resolve_rng(rng)

    def split_indices(indices: np.ndarray, fraction: float) -> Tuple[np.ndarray, np.ndarray]:
        permuted = generator.permutation(indices)
        cut = int(round(fraction * indices.size))
        return permuted[cut:], permuted[:cut]

    train_parts, val_parts, test_parts = [], [], []
    for class_id in dataset.classes:
        class_indices = np.flatnonzero(dataset.labels == class_id)
        remaining, test_idx = split_indices(class_indices, TEST_FRACTION)
        train_idx, val_idx = split_indices(remaining, VALIDATION_FRACTION)
        train_parts.append(train_idx)
        val_parts.append(val_idx)
        test_parts.append(test_idx)
    train_indices = np.concatenate(train_parts)
    val_indices = np.concatenate(val_parts)
    test_indices = np.concatenate(test_parts)

    def subset(indices: np.ndarray) -> HARDataset:
        indices = np.sort(indices)
        return HARDataset(
            features=dataset.features[indices],
            labels=dataset.labels[indices],
            label_names=dict(dataset.label_names),
        )

    if train_indices.size == 0 or test_indices.size == 0:
        raise DataError("split produced an empty train or test partition")
    if val_indices.size == 0:
        # Keep the validation set non-empty so early stopping always has data.
        val_indices, train_indices = train_indices[:1], train_indices[1:]
    return DatasetSplits(
        train=subset(train_indices),
        validation=subset(val_indices),
        test=subset(test_indices),
    )
