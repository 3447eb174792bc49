"""Neural-network building blocks on top of the autodiff engine.

Provides the module/parameter abstraction (:class:`Module`, :class:`Parameter`),
the layers of the paper's backbone (fully connected layers with batch
normalisation and ReLU), PILOTE's two losses as per-layer-graph modules
(supervised contrastive with margin, feature-space distillation), the Adam
optimiser, the halving learning-rate schedule from the paper, and a generic
:class:`Trainer` with the paper's validation-loss early-stopping rule.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import BatchNorm1d, Linear, ReLU, Sequential, build_mlp
from repro.nn.init import he_uniform, zeros_init
from repro.nn.losses import ContrastiveLoss, DistillationLoss
from repro.nn.optim import Adam, Optimizer
from repro.nn.schedulers import HalvingLR, LRScheduler
from repro.nn.trainer import EarlyStopping, Trainer, TrainingHistory

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "BatchNorm1d",
    "ReLU",
    "Sequential",
    "build_mlp",
    "he_uniform",
    "zeros_init",
    "ContrastiveLoss",
    "DistillationLoss",
    "Optimizer",
    "Adam",
    "LRScheduler",
    "HalvingLR",
    "EarlyStopping",
    "Trainer",
    "TrainingHistory",
]
