"""Classification metrics (accuracy, precision/recall/F1, per-class breakdowns)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import DataError


def _validate(y_true, y_pred) -> tuple:
    y_true = np.asarray(y_true).reshape(-1)
    y_pred = np.asarray(y_pred).reshape(-1)
    if y_true.size == 0:
        raise DataError("metric inputs must not be empty")
    if y_true.shape != y_pred.shape:
        raise DataError(
            f"y_true and y_pred must have the same length, got {y_true.shape} and {y_pred.shape}"
        )
    return y_true, y_pred


def accuracy(y_true, y_pred) -> float:
    """Fraction of correctly classified samples."""
    y_true, y_pred = _validate(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def precision_recall_f1(
    y_true, y_pred, *, classes: Optional[Sequence[int]] = None
) -> Dict[int, Dict[str, float]]:
    """Per-class precision, recall and F1."""
    y_true, y_pred = _validate(y_true, y_pred)
    if classes is None:
        classes = np.unique(np.concatenate([y_true, y_pred]))
    report: Dict[int, Dict[str, float]] = {}
    for class_id in classes:
        true_positive = float(np.sum((y_pred == class_id) & (y_true == class_id)))
        predicted_positive = float(np.sum(y_pred == class_id))
        actual_positive = float(np.sum(y_true == class_id))
        precision = true_positive / predicted_positive if predicted_positive else 0.0
        recall = true_positive / actual_positive if actual_positive else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        report[int(class_id)] = {"precision": precision, "recall": recall, "f1": f1}
    return report


def classification_report(  # repro: noqa[repro-unused] examples/quickstart.py
    y_true, y_pred, *, label_names: Optional[Dict[int, str]] = None
) -> str:
    """Human-readable per-class report similar to scikit-learn's."""
    y_true, y_pred = _validate(y_true, y_pred)
    label_names = label_names or {}
    report = precision_recall_f1(y_true, y_pred, classes=np.unique(y_true))
    lines = [f"{'class':<14}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}"]
    for class_id, scores in sorted(report.items()):
        name = label_names.get(class_id, str(class_id))
        support = int(np.sum(y_true == class_id))
        lines.append(
            f"{name:<14}{scores['precision']:>10.3f}{scores['recall']:>10.3f}"
            f"{scores['f1']:>10.3f}{support:>10d}"
        )
    lines.append(f"{'accuracy':<14}{accuracy(y_true, y_pred):>40.3f}")
    return "\n".join(lines)
