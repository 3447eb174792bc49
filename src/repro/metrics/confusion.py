"""Confusion matrices (Figure 4 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import DataError


def confusion_matrix(
    y_true, y_pred, *, classes: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Row-true / column-predicted confusion counts."""
    y_true = np.asarray(y_true).reshape(-1)
    y_pred = np.asarray(y_pred).reshape(-1)
    if y_true.shape != y_pred.shape:
        raise DataError("y_true and y_pred must have the same length")
    if classes is None:
        classes = np.unique(np.concatenate([y_true, y_pred]))
    classes = [int(c) for c in classes]
    index = {class_id: position for position, class_id in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for actual, predicted in zip(y_true, y_pred):
        if int(actual) not in index or int(predicted) not in index:
            raise DataError(
                f"label {actual} or {predicted} not covered by the provided class list"
            )
        matrix[index[int(actual)], index[int(predicted)]] += 1
    return matrix


@dataclass
class ConfusionMatrix:
    """A confusion matrix bundled with its class ids and display names."""

    matrix: np.ndarray
    classes: List[int]
    label_names: Dict[int, str]

    @classmethod
    def from_predictions(
        cls,
        y_true,
        y_pred,
        *,
        classes: Optional[Sequence[int]] = None,
        label_names: Optional[Dict[int, str]] = None,
    ) -> "ConfusionMatrix":
        y_true = np.asarray(y_true).reshape(-1)
        y_pred = np.asarray(y_pred).reshape(-1)
        if classes is None:
            classes = np.unique(np.concatenate([y_true, y_pred]))
        classes = [int(c) for c in classes]
        matrix = confusion_matrix(y_true, y_pred, classes=classes)
        return cls(matrix=matrix, classes=classes, label_names=dict(label_names or {}))

    # ------------------------------------------------------------------ #

    def accuracy(self) -> float:
        total = self.matrix.sum()
        return float(np.trace(self.matrix) / total) if total else 0.0

    def count(self, true_class: int, predicted_class: int) -> int:
        """Number of ``true_class`` samples predicted as ``predicted_class``."""
        row = self.classes.index(int(true_class))
        column = self.classes.index(int(predicted_class))
        return int(self.matrix[row, column])

    def misclassification_rate(self, true_class: int, predicted_class: int) -> float:
        """Fraction of ``true_class`` samples predicted as ``predicted_class``."""
        row = self.classes.index(int(true_class))
        total = self.matrix[row].sum()
        if total == 0:
            return 0.0
        return float(self.count(true_class, predicted_class) / total)

    def to_text(self) -> str:
        """Fixed-width text rendering (the library's matplotlib-free Figure 4)."""
        names = [self.label_names.get(c, str(c)) for c in self.classes]
        width = max(max(len(n) for n in names) + 2, 10)
        header = " " * width + "".join(f"{n:>{width}}" for n in names)
        lines = [header]
        for row_name, row in zip(names, self.matrix):
            cells = "".join(f"{int(v):>{width}d}" for v in row)
            lines.append(f"{row_name:>{width}}{cells}")
        return "\n".join(lines)
