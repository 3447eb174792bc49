"""Neural-network building blocks on top of the autodiff engine.

Provides the module/parameter abstraction (:class:`Module`, :class:`Parameter`),
the layers used by the paper's backbone (fully connected layers with batch
normalisation and ReLU), loss functions (supervised contrastive with margin,
feature-space distillation, cross-entropy), optimisers (SGD, Adam), the halving
learning-rate schedule from the paper, and a generic :class:`Trainer` with the
paper's validation-loss early-stopping rule.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    BatchNorm1d,
    Dropout,
    Identity,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    build_mlp,
)
from repro.nn.init import he_uniform, normal_init, xavier_uniform, zeros_init
from repro.nn.losses import (
    ContrastiveLoss,
    CrossEntropyLoss,
    DistillationLoss,
    LogitDistillationLoss,
    MSELoss,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.schedulers import ConstantLR, ExponentialDecayLR, HalvingLR, LRScheduler, StepLR
from repro.nn.trainer import EarlyStopping, Trainer, TrainingHistory

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "BatchNorm1d",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Dropout",
    "Identity",
    "Sequential",
    "build_mlp",
    "xavier_uniform",
    "he_uniform",
    "normal_init",
    "zeros_init",
    "ContrastiveLoss",
    "DistillationLoss",
    "LogitDistillationLoss",
    "CrossEntropyLoss",
    "MSELoss",
    "Optimizer",
    "SGD",
    "Adam",
    "LRScheduler",
    "ConstantLR",
    "StepLR",
    "HalvingLR",
    "ExponentialDecayLR",
    "EarlyStopping",
    "Trainer",
    "TrainingHistory",
]
