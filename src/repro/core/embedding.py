"""The Siamese embedding backbone.

The paper uses "a simple Fully Connected (FC) neural network with dimensions
[1024 × 512 × 128 × 64 × 128]", Batch Normalisation and ReLU on the first four
layers, and a final linear projection into a 128-dimensional embedding space.
Both Siamese branches share the same weights, so a single network object is
enough; pairs are formed downstream by indexing the embedded batch.

The network has three entry points (:mod:`repro.autodiff.primitives`):
:meth:`EmbeddingNetwork.training_loss` is PILOTE's training step, the layers
and the objective in one op with a closed-form backward;
:meth:`EmbeddingNetwork.forward` builds a tape of the layer ops (one record
per layer); and :meth:`EmbeddingNetwork.embed` — what every inference caller
uses: serving engines, herding, prototype refresh, validation and the
distillation teacher — runs the eval-mode forwards on plain numpy arrays,
with no ``Tensor``, no tape and no train/eval flip.  The training step and
``embed`` run one program, the ``(kind, epsilon)`` layer entries and the
parameters in op order, built once per network.  All three run the one
backbone the paper fixes: Linear, BatchNorm and ReLU per hidden layer, then
a Linear projection whose output is the embedding, not normalised.

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
from repro.autodiff.primitives import eval_forward
from repro.autodiff.tensor import Tensor
from repro.backend import get_backend
from repro.core.config import PiloteConfig
from repro.exceptions import ShapeError
from repro.nn.layers import EPSILON, BatchNorm1d, Linear, Sequential, build_mlp
from repro.nn.module import Module
from repro.utils.rng import RandomState

#: Most rows :meth:`EmbeddingNetwork.embed` runs through the backbone at
#: once — the one chunk size of every inference path (serving, herding,
#: prototype refresh, validation, the distillation teacher).
EMBED_ROWS = 512


class EmbeddingNetwork(Module):
    """Feature-map ``φ_Θ : R^d → R^e`` implemented as an MLP.

    Parameters
    ----------
    input_dim:
        Dimensionality of the input feature vectors (80 for the paper's
        statistical features).
    config:
        :class:`PiloteConfig` describing the layer widths and embedding size.
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
            layer_sizes, rng=rng if rng is not None else self.config.seed
        )
        #: Multiply-add FLOPs of one row through the layers (2·Σ in·out);
        #: the simulated serving clock charges batches by it.
        self.flops_per_row = 2 * sum(
            fan_in * fan_out
            for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
        )
        #: Shared-weights key (see the module docstring); ``None`` means
        #: "these weights are this network's own" and never fuses.  Code
        #: that writes parameters directly must reset it.
        self.weights_token: Optional[object] = None
        self._step_program = self._build_step_program()

    # ------------------------------------------------------------------ #
    def forward(self, inputs) -> Tensor:
        """Differentiable forward pass; accepts arrays or tensors."""
        tensor = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        self._check_input(tensor.shape)
        return self.backbone(tensor)

    def training_loss(self, features: np.ndarray, **objective) -> Tensor:
        """PILOTE's objective on one training batch of feature rows, as one op.

        :func:`~repro.autodiff.ops.pilote_step` runs the training-mode layers
        (batch statistics) and the objective (``objective`` are its pair,
        margin, variant, α and distillation keywords), and its vjp computes
        every parameter's gradient in closed form: one tape record for the
        whole step.  Each BatchNorm's running statistics are updated from
        the batch, as its training-mode forward would.
        """
        layers, parameters, norms = self._step_program
        loss, batch_stats = ops.pilote_step(
            Tensor(features), parameters, layers=layers, **objective
        )
        for norm, (mean, variance) in zip(norms, batch_stats):
            norm._update_running(mean, variance, features.shape[0])
        return loss

    def _build_step_program(self):
        """The backbone as :meth:`training_loss`'s op and :meth:`embed`'s
        eval program take it: the ``(kind, epsilon)`` layer entries, the
        parameters in op order and the BatchNorms whose running statistics
        each step updates and ``embed`` normalises by.  Built
        once, at construction; ``load_state_dict`` keeps the ``Parameter``
        objects, so it stays valid."""
        layers, parameters, norms = [], [], []
        for layer in self.backbone.layers:
            if isinstance(layer, Linear):
                layers.append(("linear", None))
                parameters += (layer.weight, layer.bias)
            elif isinstance(layer, BatchNorm1d):
                layers.append(("batch_norm", EPSILON))
                parameters += (layer.gamma, layer.beta)
                norms.append(layer)
            else:
                layers.append((type(layer).__name__.lower(), None))
        return tuple(layers), tuple(parameters), tuple(norms)

    def embed(self, features: np.ndarray) -> np.ndarray:
        """Inference-mode embedding of a feature matrix, as a plain numpy program.

        The eval program (:func:`~repro.autodiff.primitives.eval_forward`)
        over the layers and parameters :meth:`training_loss` runs, with each
        BatchNorm's tracked statistics
        (:meth:`~repro.nn.layers.BatchNorm1d.eval_constants`).
        Bit-identical to the eval-mode :meth:`forward` but builds no
        ``Tensor`` and leaves ``training`` and the BatchNorm buffers alone,
        so it is safe mid-training (validation) and cheap for
        the 1-8 row calls of small-batch serving.  ``features`` is never
        written; past the first layer BatchNorm and ReLU write into the
        array the layer before made, so the transient peak is one layer's
        output beside the next one's, at most two activations of the
        widest layer, for at most :data:`EMBED_ROWS` rows: longer inputs
        are processed in chunks of that many rows to bound it on
        resource-constrained devices.
        """
        features = get_backend().asarray(features)
        if features.ndim == 1:
            features = features[None, :]
        self._check_input(features.shape)
        if features.shape[0] <= EMBED_ROWS:
            return eval_forward(features, *self._step_program)
        return np.concatenate([
            eval_forward(features[start:start + EMBED_ROWS], *self._step_program)
            for start in range(0, features.shape[0], EMBED_ROWS)
        ], axis=0)

    def _check_input(self, shape) -> None:
        if len(shape) != 2 or shape[1] != self.input_dim:
            raise ShapeError(
                f"expected input of shape (batch, {self.input_dim}), got {shape}"
            )

    def load_state_dict(self, state) -> None:
        """Load weights (see :meth:`Module.load_state_dict`); drops the token."""
        super().load_state_dict(state)
        self.weights_token = None
