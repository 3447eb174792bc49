"""Configuration of the PILOTE learner.

The defaults replicate the parameter settings reported in Section 6.1.2 of the
paper: a fully connected backbone of widths 1024 × 512 × 128 × 64 projecting
into a 128-dimensional embedding space, Adam with an initial learning rate of
0.01 halved every epoch, balancing weight α = 0.5, and early stopping once the
validation-loss change stays below 10⁻⁴ for five consecutive epochs.

What the paper fixes is not configurable: every hidden layer is followed
by BatchNorm and ReLU, the last layer is a linear projection with no
embedding normalisation, and Adam's moment decay rates and epsilon, the
schedule's learning-rate floor and BatchNorm's momentum and epsilon are
constants of :mod:`repro.nn`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class PiloteConfig:
    """Hyper-parameters of PILOTE and of the embedding backbone.

    Attributes
    ----------
    hidden_dims:
        Widths of the hidden fully connected layers (BatchNorm + ReLU each).
    embedding_dim:
        Dimensionality of the final embedding space.
    alpha:
        Balancing weight between distillation and contrastive terms,
        ``L = α · L_disti + (1 − α) · L_contra``.
    margin:
        Margin of the contrastive loss.
    contrastive_variant:
        ``"squared"`` (paper Eq. 2) or ``"hadsell"``.
    learning_rate:
        Initial Adam learning rate (halved every epoch).
    batch_size:
        Mini-batch size for both pre-training and edge updates.
    max_epochs_pretrain / max_epochs_increment:
        Epoch caps for cloud pre-training and edge incremental updates.
    early_stopping_threshold / early_stopping_patience:
        The paper's plateau rule (1e-4, five consecutive epochs).
    cache_size:
        Edge cache size ``K``: the total number of old-class exemplars kept;
        divided evenly among old classes (``m = K / (s − 1)``).
    exemplar_strategy:
        ``"herding"`` (representative exemplars, Algorithm 1) or ``"random"``.
    max_pairs_per_batch:
        Cap on the number of contrastive pairs sampled from one mini-batch.
    seed:
        Base seed for parameter initialisation and batching.
    """

    hidden_dims: Tuple[int, ...] = (1024, 512, 128, 64)
    embedding_dim: int = 128
    alpha: float = 0.5
    margin: float = 1.0
    contrastive_variant: str = "squared"
    learning_rate: float = 0.01
    batch_size: int = 64
    max_epochs_pretrain: int = 30
    max_epochs_increment: int = 20
    early_stopping_threshold: float = 1e-4
    early_stopping_patience: int = 5
    cache_size: int = 800
    exemplar_strategy: str = "herding"
    max_pairs_per_batch: int = 256
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.hidden_dims:
            raise ConfigurationError("hidden_dims must contain at least one layer width")
        if any(width <= 0 for width in self.hidden_dims):
            raise ConfigurationError(f"hidden layer widths must be positive, got {self.hidden_dims}")
        if self.embedding_dim <= 0:
            raise ConfigurationError(f"embedding_dim must be positive, got {self.embedding_dim}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.margin <= 0:
            raise ConfigurationError(f"margin must be positive, got {self.margin}")
        if self.contrastive_variant not in ("squared", "hadsell"):
            raise ConfigurationError(
                f"contrastive_variant must be 'squared' or 'hadsell', got {self.contrastive_variant!r}"
            )
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size <= 1:
            raise ConfigurationError(f"batch_size must be at least 2, got {self.batch_size}")
        if self.max_epochs_pretrain <= 0 or self.max_epochs_increment <= 0:
            raise ConfigurationError("epoch caps must be positive")
        if self.early_stopping_threshold < 0:
            raise ConfigurationError(
                f"early_stopping_threshold must be non-negative, got {self.early_stopping_threshold}"
            )
        if self.early_stopping_patience <= 0:
            raise ConfigurationError(
                f"early_stopping_patience must be positive, got {self.early_stopping_patience}"
            )
        if self.cache_size <= 0:
            raise ConfigurationError(f"cache_size must be positive, got {self.cache_size}")
        if self.exemplar_strategy not in ("herding", "random"):
            raise ConfigurationError(
                f"exemplar_strategy must be 'herding' or 'random', got {self.exemplar_strategy!r}"
            )
        if self.max_pairs_per_batch <= 0:
            raise ConfigurationError(
                f"max_pairs_per_batch must be positive, got {self.max_pairs_per_batch}"
            )
        if self.seed is not None and self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")

    # ------------------------------------------------------------------ #
    def layer_sizes(self, input_dim: int) -> Tuple[int, ...]:
        """Full layer-width sequence of the backbone for a given input size."""
        if input_dim <= 0:
            raise ConfigurationError(f"input_dim must be positive, got {input_dim}")
        return (int(input_dim),) + tuple(self.hidden_dims) + (int(self.embedding_dim),)

    def with_overrides(self, **kwargs) -> "PiloteConfig":
        """Return a copy with some fields replaced (dataclass ``replace``)."""
        return replace(self, **kwargs)

    @classmethod
    def paper_defaults(cls) -> "PiloteConfig":
        """The configuration described in Section 6.1.2 of the paper."""
        return cls()

    @classmethod
    def edge_lightweight(cls, seed: Optional[int] = None) -> "PiloteConfig":
        """A reduced backbone suitable for fast CPU experiments and tests.

        The layer pattern mirrors the paper's (wide → narrow → embedding) at a
        fraction of the parameter count, which keeps the numpy training loops
        fast while preserving the incremental-learning behaviour.
        """
        return cls(
            hidden_dims=(128, 64),
            embedding_dim=32,
            batch_size=32,
            max_epochs_pretrain=15,
            max_epochs_increment=10,
            cache_size=400,
            seed=seed,
        )
