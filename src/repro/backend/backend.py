"""Pluggable compute backend.

A :class:`Backend` owns three things:

1. **array creation** under the global dtype policy (:mod:`~repro.backend.policy`)
   — every array materialised through the backend gets the active compute
   dtype unless one is requested explicitly;
2. **a reusable-buffer workspace** (:class:`~repro.backend.workspace.Workspace`)
   so repeated training/serving steps stop allocating;
3. **the vectorized kernels** the hot paths share (batched distance matrices,
   grouped means), expressed once so dtype policy applies uniformly.

:class:`NumpyBackend` is the only concrete backend today; the indirection is
the extension point for future accelerator or multi-device backends (see
ROADMAP "Open items").
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple, Union

import numpy as np

from repro.backend.policy import DtypeLike, default_dtype, resolve_dtype
from repro.backend.workspace import Workspace
from repro.exceptions import ConfigurationError, ShapeError


class Backend(abc.ABC):
    """Abstract compute backend: array creation, workspace, hot-path kernels."""

    #: Identifier used in logs and benchmark reports.
    name: str = "abstract"

    def __init__(self) -> None:
        self._workspace = Workspace()

    # ------------------------------------------------------------------ #
    # array creation (dtype policy applies when dtype is omitted)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def asarray(self, data, dtype: Optional[DtypeLike] = None) -> np.ndarray:
        """Materialise ``data`` as a backend array in the policy dtype."""

    @abc.abstractmethod
    def zeros(self, shape, dtype: Optional[DtypeLike] = None) -> np.ndarray:
        """Zero-filled array."""

    @abc.abstractmethod
    def empty(self, shape, dtype: Optional[DtypeLike] = None) -> np.ndarray:
        """Uninitialised array."""

    # ------------------------------------------------------------------ #
    # workspace
    # ------------------------------------------------------------------ #
    @property
    def workspace(self) -> Workspace:
        """The backend's reusable-buffer pool."""
        return self._workspace

    def scratch(self, shape, dtype: Optional[DtypeLike] = None, tag: str = "") -> np.ndarray:
        """Shorthand for ``workspace.request``."""
        return self._workspace.request(shape, dtype, tag)

    # ------------------------------------------------------------------ #
    # shared vectorized kernels
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def pairwise_distances(
        self, queries: np.ndarray, references: np.ndarray, metric: str = "euclidean"
    ) -> np.ndarray:
        """``(n, m)`` distances between query rows and reference rows."""

    @abc.abstractmethod
    def grouped_means(
        self, values: np.ndarray, groups: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-group row means: returns ``(unique_groups, (g, d) means)``."""


class NumpyBackend(Backend):
    """The default backend: plain numpy under the global dtype policy."""

    name = "numpy"

    # -- creation -------------------------------------------------------- #
    def asarray(self, data, dtype: Optional[DtypeLike] = None) -> np.ndarray:
        resolved = resolve_dtype(dtype) if dtype is not None else default_dtype()
        return np.asarray(data, dtype=resolved)

    def zeros(self, shape, dtype: Optional[DtypeLike] = None) -> np.ndarray:
        resolved = resolve_dtype(dtype) if dtype is not None else default_dtype()
        return np.zeros(shape, dtype=resolved)

    def empty(self, shape, dtype: Optional[DtypeLike] = None) -> np.ndarray:
        resolved = resolve_dtype(dtype) if dtype is not None else default_dtype()
        return np.empty(shape, dtype=resolved)

    # -- kernels --------------------------------------------------------- #
    def pairwise_distances(
        self, queries: np.ndarray, references: np.ndarray, metric: str = "euclidean"
    ) -> np.ndarray:
        queries = np.asarray(queries)
        references = np.asarray(references)
        if queries.ndim != 2 or references.ndim != 2:
            raise ShapeError(
                f"pairwise_distances requires 2-D inputs, got {queries.shape} "
                f"and {references.shape}"
            )
        if queries.shape[1] != references.shape[1]:
            raise ShapeError(
                f"dimension mismatch: queries are {queries.shape[1]}-D, "
                f"references {references.shape[1]}-D"
            )
        if metric == "euclidean":
            # ||q - r||^2 = ||q||^2 - 2 q.r + ||r||^2 via one GEMM instead of
            # materialising the (n, m, d) difference tensor.
            q_sq = np.einsum("ij,ij->i", queries, queries)
            r_sq = np.einsum("ij,ij->i", references, references)
            squared = q_sq[:, None] - 2.0 * (queries @ references.T) + r_sq[None, :]
            np.maximum(squared, 0.0, out=squared)
            return np.sqrt(squared, out=squared)
        if metric == "cosine":
            q_norm = queries / (np.linalg.norm(queries, axis=1, keepdims=True) + 1e-12)
            r_norm = references / (np.linalg.norm(references, axis=1, keepdims=True) + 1e-12)
            return 1.0 - q_norm @ r_norm.T
        raise ConfigurationError(f"unknown metric {metric!r}")

    def grouped_means(
        self, values: np.ndarray, groups: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        values = np.asarray(values)
        groups = np.asarray(groups).reshape(-1)
        if values.ndim != 2:
            raise ShapeError(f"grouped_means requires 2-D values, got {values.shape}")
        if groups.shape[0] != values.shape[0]:
            raise ShapeError(
                f"got {groups.shape[0]} group ids for {values.shape[0]} rows"
            )
        unique, inverse = np.unique(groups, return_inverse=True)
        sums = np.zeros((unique.shape[0], values.shape[1]), dtype=values.dtype)
        np.add.at(sums, inverse, values)
        counts = np.bincount(inverse, minlength=unique.shape[0])
        return unique, sums / counts[:, None]


_ACTIVE_BACKEND: Backend = NumpyBackend()


def get_backend() -> Backend:
    """The process-wide active backend."""
    return _ACTIVE_BACKEND


def set_backend(backend: Backend) -> Backend:
    """Swap the active backend; returns the previous one."""
    global _ACTIVE_BACKEND
    if not isinstance(backend, Backend):
        raise ConfigurationError(f"expected a Backend instance, got {type(backend)!r}")
    previous = _ACTIVE_BACKEND
    _ACTIVE_BACKEND = backend
    return previous


#: Backend name → class, for spawning backends by name in worker processes.
BACKENDS = {NumpyBackend.name: NumpyBackend}


def make_backend(name: str) -> Backend:
    """A fresh backend instance by registry name (own workspace buffers)."""
    try:
        return BACKENDS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}"
        ) from None


def install_worker_backend(backend: Union[str, Backend] = NumpyBackend.name,
                           dtype=None) -> Backend:
    """Per-process installation hook for executor worker processes.

    A worker process (see :class:`repro.serving.ProcessExecutor`) must not
    share mutable backend state — workspace scratch buffers, the dtype
    policy — with the parent, so each worker calls this once at startup:
    a *fresh* backend instance is built (by registry name, so the parent
    only ships a string over IPC) and installed via :func:`set_backend`,
    and the worker's base compute dtype is set when given.  Returns the
    installed backend.
    """
    from repro.backend.policy import set_default_dtype

    instance = make_backend(backend) if isinstance(backend, str) else backend
    set_backend(instance)
    if dtype is not None:
        set_default_dtype(dtype)
    return instance
