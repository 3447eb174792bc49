"""Finite-difference gradient checking for the autodiff engine.

These utilities are used by the test suite to prove that every analytic
gradient implemented in :mod:`repro.autodiff` and :mod:`repro.nn` matches a
central finite-difference approximation.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autodiff.tensor import Tensor
from repro.backend.policy import precision
from repro.exceptions import GradientError


def numerical_gradient(
    function: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    index: int,
    epsilon: float = 1e-6,
) -> np.ndarray:
    """Central finite-difference gradient of a scalar-valued ``function``.

    Parameters
    ----------
    function:
        Callable mapping the list of input tensors to a scalar tensor.
    inputs:
        The input tensors; only ``inputs[index]`` is perturbed.
    index:
        Which input to differentiate with respect to.
    epsilon:
        Perturbation size.
    """
    target = inputs[index]
    flat = target.data.reshape(-1)
    grad = np.zeros_like(flat)
    for position in range(flat.size):
        original = flat[position]
        flat[position] = original + epsilon
        plus = float(function(inputs).data)
        flat[position] = original - epsilon
        minus = float(function(inputs).data)
        flat[position] = original
        grad[position] = (plus - minus) / (2.0 * epsilon)
    return grad.reshape(target.data.shape)


def check_gradients(  # repro: noqa[repro-unused] test oracle: tests/test_registered_ops.py
    function: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    *,
    epsilon: float = 1e-6,
    atol: float = 1e-5,
    rtol: float = 1e-4,
    raise_on_failure: bool = True,
) -> bool:
    """Compare analytic and numerical gradients for every grad-requiring input.

    Returns ``True`` when all gradients match within tolerance; raises
    :class:`~repro.exceptions.GradientError` (or returns ``False``) otherwise.

    Gradient checking is a ``float64`` activity: central differences with the
    default ``epsilon`` drown in ``float32`` rounding noise.  The whole check
    therefore runs under the ``float64`` precision profile (so any leaf the
    function creates internally is ``float64`` too), and ``float32`` inputs
    are rejected with a clear error instead of producing flaky mismatches.
    """
    for tensor in inputs:
        if tensor.data.dtype != np.float64:
            raise GradientError(
                "check_gradients requires float64 inputs (finite differences are "
                f"unreliable in {tensor.data.dtype}); create the tensors under "
                "precision('float64')"
            )
        tensor.zero_grad()
    with precision("gradcheck"):
        return _check_float64(
            function, inputs, epsilon=epsilon, atol=atol, rtol=rtol,
            raise_on_failure=raise_on_failure,
        )


def _check_float64(
    function: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    *,
    epsilon: float,
    atol: float,
    rtol: float,
    raise_on_failure: bool,
) -> bool:
    output = function(inputs)
    if output.size != 1:
        raise GradientError("check_gradients requires a scalar-valued function")
    output.backward()

    for index, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = numerical_gradient(function, inputs, index, epsilon=epsilon)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            max_error = float(np.max(np.abs(analytic - numeric)))
            if raise_on_failure:
                raise GradientError(
                    f"gradient mismatch for input {index}: max abs error {max_error:.3e}"
                )
            return False
    return True
