"""Catastrophic-forgetting metrics.

The paper's Definition 2 characterises forgetting as degraded loss/accuracy on
the old classes after the incremental update; the helpers here quantify that
(old-class accuracy drop, backward transfer, average incremental accuracy).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import DataError
from repro.metrics.classification import accuracy


def old_class_accuracy(y_true, y_pred, old_classes: Iterable[int]) -> float:
    """Accuracy restricted to samples whose true class is an old class."""
    y_true = np.asarray(y_true).reshape(-1)
    y_pred = np.asarray(y_pred).reshape(-1)
    old = np.isin(y_true, np.asarray(sorted(int(c) for c in old_classes)))
    if not old.any():
        raise DataError("no samples of the old classes are present")
    return accuracy(y_true[old], y_pred[old])


def new_class_accuracy(y_true, y_pred, new_classes: Iterable[int]) -> float:
    """Accuracy restricted to samples whose true class is a new class."""
    y_true = np.asarray(y_true).reshape(-1)
    y_pred = np.asarray(y_pred).reshape(-1)
    new = np.isin(y_true, np.asarray(sorted(int(c) for c in new_classes)))
    if not new.any():
        raise DataError("no samples of the new classes are present")
    return accuracy(y_true[new], y_pred[new])


def backward_transfer(per_step_old_accuracy: Sequence[float]) -> float:
    """Average change of old-class accuracy relative to the first measurement.

    Negative values indicate forgetting; positive values indicate that learning
    new classes *helped* the old ones (rare but possible).
    """
    values = np.asarray(list(per_step_old_accuracy), dtype=np.float64)
    if values.size < 2:
        raise DataError("backward transfer needs at least two accuracy measurements")
    return float(np.mean(values[1:] - values[0]))


def average_incremental_accuracy(per_step_accuracy: Sequence[float]) -> float:
    """Mean accuracy over all incremental steps (the standard CIL summary metric)."""
    values = np.asarray(list(per_step_accuracy), dtype=np.float64)
    if values.size == 0:
        raise DataError("at least one accuracy measurement is required")
    return float(values.mean())
