"""Evaluation metrics: classification scores, confusion matrices, forgetting, embedding quality."""

from repro.metrics.classification import (
    accuracy,
    classification_report,
    precision_recall_f1,
)
from repro.metrics.confusion import ConfusionMatrix, confusion_matrix
from repro.metrics.forgetting import (
    average_incremental_accuracy,
    backward_transfer,
    new_class_accuracy,
    old_class_accuracy,
)
from repro.metrics.embedding_quality import (
    class_separation_report,
    intra_inter_distance_ratio,
    silhouette_score,
)

__all__ = [
    "accuracy",
    "precision_recall_f1",
    "classification_report",
    "ConfusionMatrix",
    "confusion_matrix",
    "backward_transfer",
    "average_incremental_accuracy",
    "old_class_accuracy",
    "new_class_accuracy",
    "silhouette_score",
    "intra_inter_distance_ratio",
    "class_separation_report",
]
