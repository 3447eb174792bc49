"""The numeric substrate: array creation and the shared hot-path kernels.

:class:`NumpyBackend` is plain numpy under the global dtype policy
(:mod:`~repro.backend.policy`):

1. **array creation** — every array materialised through it gets the active
   compute dtype unless one is requested explicitly;
2. **the vectorized kernels** the hot paths share (batched distance matrices,
   grouped means), expressed once so the dtype policy applies uniformly.

Every caller reaches the one process-wide instance through
:func:`get_backend`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend.policy import DtypeLike, default_dtype, resolve_dtype
from repro.exceptions import ShapeError


class NumpyBackend:
    """Plain numpy under the global dtype policy."""

    # -- creation -------------------------------------------------------- #
    def asarray(self, data, dtype: Optional[DtypeLike] = None) -> np.ndarray:
        """Materialise ``data`` as an array in the policy dtype."""
        resolved = resolve_dtype(dtype) if dtype is not None else default_dtype()
        return np.asarray(data, dtype=resolved)

    def zeros(self, shape, dtype: Optional[DtypeLike] = None) -> np.ndarray:
        """Zero-filled array in the policy dtype."""
        resolved = resolve_dtype(dtype) if dtype is not None else default_dtype()
        return np.zeros(shape, dtype=resolved)

    # -- kernels --------------------------------------------------------- #
    def pairwise_distances(
        self, queries: np.ndarray, references: np.ndarray
    ) -> np.ndarray:
        """``(n, m)`` Euclidean distances between query rows and reference rows."""
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
        # ||q - r||^2 = ||q||^2 - 2 q.r + ||r||^2 via one GEMM instead of
        # materialising the (n, m, d) difference tensor.
        q_sq = np.einsum("ij,ij->i", queries, queries)
        r_sq = np.einsum("ij,ij->i", references, references)
        squared = q_sq[:, None] - 2.0 * (queries @ references.T) + r_sq[None, :]
        np.maximum(squared, 0.0, out=squared)
        return np.sqrt(squared, out=squared)


_BACKEND = NumpyBackend()


def get_backend() -> NumpyBackend:
    """The process-wide numeric substrate."""
    return _BACKEND
