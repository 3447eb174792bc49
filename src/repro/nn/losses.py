"""Loss functions.

The two losses at the heart of PILOTE are implemented here:

* :class:`ContrastiveLoss` — the supervised contrastive loss with margin from
  Eq. (2) of the paper, applied to pairs of embeddings produced by the shared
  Siamese backbone.
* :class:`DistillationLoss` — the feature-space distillation term of
  Algorithm 1 (line 11), penalising movement of old-class exemplar embeddings
  away from the embeddings produced by the frozen pre-trained model.

PILOTE's training combines them with the balancing weight ``α``
(``L = α · L_disti + (1 − α) · L_contra``) inside its one-op training step,
:func:`repro.autodiff.ops.pilote_step`, whose closed-form gradients match
these two modules' to float rounding (its validation pass evaluates the same
objective on plain arrays, :func:`repro.autodiff.primitives.pilote_loss`).
The two modules stay as the per-layer-graph reference those gradients are
checked against.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor
from repro.exceptions import ShapeError
from repro.nn.module import Module


class ContrastiveLoss(Module):
    """Supervised contrastive loss with margin (paper Eq. 2).

    For a pair of embeddings ``(e_i, e_j)`` with pair label ``Y`` (1 when the
    two samples share a class, 0 otherwise), the per-pair loss is::

        Y * d^2 + (1 - Y) * max(0, m^2 - d^2)          (squared-margin form)

    where ``d = ||e_i - e_j||``.  The classic Hadsell et al. form
    ``(1 - Y) * max(0, m - d)^2`` is available via ``variant="hadsell"``.

    Parameters
    ----------
    margin:
        The margin ``m`` separating dissimilar pairs.
    variant:
        ``"squared"`` (paper Eq. 2, default) or ``"hadsell"``.
    reduction:
        ``"mean"`` or ``"sum"`` over pairs.
    """

    def __init__(self, margin: float = 1.0, variant: str = "squared", reduction: str = "mean") -> None:
        super().__init__()
        if margin <= 0:
            raise ValueError(f"margin must be positive, got {margin}")
        if variant not in ("squared", "hadsell"):
            raise ValueError(f"variant must be 'squared' or 'hadsell', got {variant!r}")
        if reduction not in ("mean", "sum"):
            raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
        self.margin = float(margin)
        self.variant = variant
        self.reduction = reduction

    def forward(self, left: Tensor, right: Tensor, same_class) -> Tensor:
        """Compute the loss for row-aligned embedding pairs.

        Parameters
        ----------
        left, right:
            ``(n_pairs, embedding_dim)`` embeddings from the Siamese branches.
        same_class:
            Array-like of ``n_pairs`` binary indicators (1 = same class).
        """
        if left.shape != right.shape:
            raise ShapeError(f"pair embeddings must share a shape, got {left.shape} vs {right.shape}")
        labels = np.asarray(
            same_class.data if isinstance(same_class, Tensor) else same_class,
            dtype=left.data.dtype,
        ).reshape(-1)
        if labels.shape[0] != left.shape[0]:
            raise ShapeError(
                f"expected {left.shape[0]} pair labels, got {labels.shape[0]}"
            )
        y = Tensor(labels)
        squared_distance = ops.pairwise_squared_distance(left, right)
        if self.variant == "squared":
            dissimilar = (Tensor(self.margin**2) - squared_distance).clamp_min(0.0)
        else:
            distance = (squared_distance + 1e-12).sqrt()
            hinge = (Tensor(self.margin) - distance).clamp_min(0.0)
            dissimilar = hinge * hinge
        per_pair = y * squared_distance + (Tensor(1.0) - y) * dissimilar
        return per_pair.mean() if self.reduction == "mean" else per_pair.sum()


class DistillationLoss(Module):
    """Feature-space distillation loss (Algorithm 1, line 11).

    Penalises the squared Euclidean distance between the embeddings of
    old-class exemplars under the updated model and under the frozen
    pre-trained model: ``Σ ||φ_new(x) − φ_old(x)||²``.
    """

    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        if reduction not in ("mean", "sum"):
            raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
        self.reduction = reduction

    def forward(self, new_embeddings: Tensor, old_embeddings: Tensor) -> Tensor:
        """``new_embeddings`` carries gradient; ``old_embeddings`` is treated as constant."""
        old = old_embeddings.detach() if isinstance(old_embeddings, Tensor) else Tensor(old_embeddings)
        if new_embeddings.shape != old.shape:
            raise ShapeError(
                "distillation requires matching embedding shapes, got "
                f"{new_embeddings.shape} vs {old.shape}"
            )
        squared = ops.pairwise_squared_distance(new_embeddings, old)
        return squared.mean() if self.reduction == "mean" else squared.sum()

