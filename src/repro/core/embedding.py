"""The Siamese embedding backbone.

The paper uses "a simple Fully Connected (FC) neural network with dimensions
[1024 × 512 × 128 × 64 × 128]", Batch Normalisation and ReLU on the first four
layers, and a final linear projection into a 128-dimensional embedding space.
Both Siamese branches share the same weights, so a single network object is
enough; pairs are formed downstream by indexing the embedded batch.

The network has two entry points over the same layer ops
(:mod:`repro.autodiff.primitives`): :meth:`EmbeddingNetwork.forward` builds a
tape for training (one record per layer), and :meth:`EmbeddingNetwork.embed`
— what every inference caller uses: serving engines, herding, prototype
refresh and the distillation teacher — runs the eval-mode forwards on plain
numpy arrays, with no ``Tensor``, no tape and no train/eval flip.

Every network carries a :attr:`EmbeddingNetwork.weights_token`: an opaque,
O(1) key that is equal on two networks only when they are known to hold the
same weights.  Networks materialised from one
:class:`~repro.edge.transfer.TransferPackage` share the package's token, so
the serving scheduler can embed their lanes' windows in one stacked call;
every weight write path (construction, :meth:`load_state_dict`, training in
``PILOTE``) resets it to ``None``, which never matches anything.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor
from repro.backend import get_backend
from repro.backend.registry import NO_TAPE, get_op
from repro.core.config import PiloteConfig
from repro.exceptions import ShapeError
from repro.nn.layers import Sequential, build_mlp
from repro.nn.module import Module
from repro.utils.rng import RandomState

_L2_NORMALIZE = get_op("l2_normalize").forward


class EmbeddingNetwork(Module):
    """Feature-map ``φ_Θ : R^d → R^e`` implemented as an MLP.

    Parameters
    ----------
    input_dim:
        Dimensionality of the input feature vectors (80 for the paper's
        statistical features).
    config:
        :class:`PiloteConfig` describing the layer widths, embedding size and
        whether embeddings are L2-normalised.
    rng:
        Seed or generator for the weight initialisation.
    """

    def __init__(
        self,
        input_dim: int,
        config: Optional[PiloteConfig] = None,
        rng: RandomState = None,
    ) -> None:
        super().__init__()
        self.config = config or PiloteConfig()
        self.input_dim = int(input_dim)
        self.embedding_dim = self.config.embedding_dim
        layer_sizes = self.config.layer_sizes(input_dim)
        self.backbone: Sequential = build_mlp(
            layer_sizes,
            batch_norm=self.config.batch_norm,
            activation="relu",
            rng=rng if rng is not None else self.config.seed,
        )
        self.normalize = bool(self.config.normalize_embeddings)
        #: Shared-weights key (see the module docstring); ``None`` means
        #: "these weights are this network's own" and never fuses.  Code
        #: that writes parameters directly must reset it.
        self.weights_token: Optional[object] = None

    # ------------------------------------------------------------------ #
    def forward(self, inputs) -> Tensor:
        """Differentiable forward pass; accepts arrays or tensors."""
        tensor = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        self._check_input(tensor.shape)
        embeddings = self.backbone(tensor)
        if self.normalize:
            embeddings = ops.l2_normalize(embeddings, axis=1)
        return embeddings

    def embed(self, features: np.ndarray, *, batch_size: int = 512) -> np.ndarray:
        """Inference-mode embedding of a feature matrix, as a plain numpy program.

        Bit-identical to the eval-mode :meth:`forward` but builds no
        ``Tensor`` and leaves ``training`` and the BatchNorm buffers alone,
        so it is safe mid-training (the distillation teacher) and cheap for
        the 1-8 row calls of small-batch serving.  Large inputs are
        processed in chunks to bound peak memory on resource-constrained
        devices.
        """
        features = get_backend().asarray(features)
        if features.ndim == 1:
            features = features[None, :]
        self._check_input(features.shape)
        if features.shape[0] <= batch_size:
            return self._embed_chunk(features)
        return np.concatenate([
            self._embed_chunk(features[start:start + batch_size])
            for start in range(0, features.shape[0], batch_size)
        ], axis=0)

    def _embed_chunk(self, chunk: np.ndarray) -> np.ndarray:
        embeddings = self.backbone.array_forward(chunk)
        if self.normalize:
            embeddings = _L2_NORMALIZE(NO_TAPE, embeddings, axis=1)
        return embeddings

    def _check_input(self, shape) -> None:
        if len(shape) != 2 or shape[1] != self.input_dim:
            raise ShapeError(
                f"expected input of shape (batch, {self.input_dim}), got {shape}"
            )

    def load_state_dict(self, state) -> None:
        """Load weights (see :meth:`Module.load_state_dict`); drops the token."""
        super().load_state_dict(state)
        self.weights_token = None

    # ------------------------------------------------------------------ #
    def clone_frozen(self) -> "EmbeddingNetwork":
        """Deep copy used as the frozen teacher ``φ_Θo`` for distillation."""
        duplicate = EmbeddingNetwork(self.input_dim, config=self.config)
        duplicate.load_state_dict(self.state_dict())
        duplicate.eval()
        return duplicate

    def describe(self) -> dict:
        """Architecture summary (used by logs, examples and the edge profiler)."""
        return {
            "input_dim": self.input_dim,
            "hidden_dims": list(self.config.hidden_dims),
            "embedding_dim": self.embedding_dim,
            "n_parameters": self.num_parameters(),
            "parameter_bytes_float32": self.parameter_nbytes(),
            "batch_norm": self.config.batch_norm,
            "normalized": self.normalize,
        }
