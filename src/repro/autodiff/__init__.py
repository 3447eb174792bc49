"""A small reverse-mode automatic differentiation engine on top of numpy.

The engine provides the :class:`~repro.autodiff.tensor.Tensor` class whose
operations build a dynamic computation graph by dispatching *named* ops from
the backend registry (:mod:`repro.backend.registry`); calling ``backward()``
on a scalar result propagates gradients to every tensor created with
``requires_grad=True``.  The forward/vjp rule of every primitive lives in
:mod:`repro.autodiff.primitives` as a declarative record, so ops are testable
in isolation and the recorded tape (``Tensor.trace()``) is inspectable.  It
is the substrate on which :mod:`repro.nn` (layers, losses, optimisers) and
ultimately the PILOTE model are built, replacing the PyTorch dependency of
the original paper.
"""

from repro.autodiff.tensor import Tensor, no_grad
from repro.autodiff import ops
from repro.autodiff import primitives
from repro.autodiff.gradcheck import check_gradients, numerical_gradient

__all__ = [
    "Tensor",
    "no_grad",
    "ops",
    "primitives",
    "check_gradients",
    "numerical_gradient",
]
