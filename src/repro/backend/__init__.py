"""Pluggable compute backend: dtype policy, op registry, reusable workspace.

This package is the seam between the numerical substrate and everything built
on it (autodiff, nn, PILOTE core, serving):

* :mod:`repro.backend.policy` — the global compute-dtype policy
  (``float32`` for edge profiles, ``float64`` reference/gradcheck) with the
  :func:`~repro.backend.policy.precision` context manager;
* :mod:`repro.backend.registry` — the declarative op registry the autodiff
  tape dispatches through (named forward/vjp records instead of anonymous
  closures);
* :mod:`repro.backend.workspace` — reusable scratch buffers so repeated
  training/serving steps stop allocating;
* :mod:`repro.backend.backend` — the :class:`~repro.backend.backend.Backend`
  abstraction (array creation + shared vectorized kernels) with
  :class:`~repro.backend.backend.NumpyBackend` as the default and the
  extension point for future accelerator backends.
"""

from repro.backend.backend import (
    BACKENDS,
    Backend,
    NumpyBackend,
    get_backend,
    install_worker_backend,
    make_backend,
    set_backend,
)
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
from repro.backend.workspace import Workspace

__all__ = [
    "BACKENDS",
    "Backend",
    "NumpyBackend",
    "get_backend",
    "install_worker_backend",
    "make_backend",
    "set_backend",
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
    "Workspace",
]
