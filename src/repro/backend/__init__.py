"""The numerical substrate: dtype policy, op registry, numpy kernels.

Everything numeric (autodiff, nn, PILOTE core, serving) builds on:

* :mod:`repro.backend.policy` — the global compute-dtype policy
  (``float32`` for edge profiles, ``float64`` reference/gradcheck) with the
  :func:`~repro.backend.policy.precision` context manager;
* :mod:`repro.backend.registry` — the declarative op registry the autodiff
  tape dispatches through (named forward/vjp records instead of anonymous
  closures);
* :mod:`repro.backend.backend` — :class:`~repro.backend.backend.NumpyBackend`,
  array creation under the policy plus the shared vectorized kernels
  (distance matrices, grouped means), reached through
  :func:`~repro.backend.backend.get_backend`.
"""

from repro.backend.backend import NumpyBackend, get_backend
from repro.backend.policy import (
    PROFILE_DTYPES,
    default_dtype,
    precision,
    resolve_dtype,
    set_default_dtype,
)
from repro.backend.registry import (
    OpContext,
    OpSpec,
    apply,
    get_op,
    is_registered,
    list_ops,
    register_op,
)

__all__ = [
    "NumpyBackend",
    "get_backend",
    "PROFILE_DTYPES",
    "default_dtype",
    "precision",
    "resolve_dtype",
    "set_default_dtype",
    "OpContext",
    "OpSpec",
    "apply",
    "get_op",
    "is_registered",
    "list_ops",
    "register_op",
]
