"""Nearest Class Mean (NCM) classifier on the embedding space (Eq. 1).

Given class prototypes ``μ_y``, a sample is assigned to the class whose
prototype is nearest to its embedding.  The classifier itself holds no
trainable parameters, which is what makes it cheap enough for the edge.

The hot path is fully vectorized through the compute backend: the prototype
matrix and the class-id lookup array are cached at fit time (refreshed
automatically via the store's mutation counter), distances go through one
GEMM-based kernel, and predictions map argmin indices to class ids with a
single ``take`` instead of a per-row Python loop.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.backend import default_dtype, get_backend
from repro.core.prototypes import PrototypeStore
from repro.exceptions import DataError, NotFittedError


class NCMClassifier:
    """Nearest-class-mean classification with Euclidean distance."""

    def __init__(self) -> None:
        self._store: Optional[PrototypeStore] = None
        self._classes: List[int] = []
        self._class_ids: Optional[np.ndarray] = None
        self._prototype_matrix: Optional[np.ndarray] = None
        self._cached_version: Optional[int] = None

    # ------------------------------------------------------------------ #
    def fit(self, prototypes) -> "NCMClassifier":
        """Fit from a :class:`PrototypeStore` or a ``{class id: vector}`` mapping."""
        if isinstance(prototypes, PrototypeStore):
            store = prototypes
        elif isinstance(prototypes, dict):
            store = PrototypeStore()
            for class_id, vector in prototypes.items():
                store.set(int(class_id), vector)
        else:
            raise DataError("prototypes must be a PrototypeStore or a dict")
        if len(store) == 0:
            raise DataError("cannot fit an NCM classifier with zero prototypes")
        self._store = store
        self._classes = store.classes
        self._class_ids = np.asarray(self._classes, dtype=np.int64)
        self._refresh_cache()
        return self

    def _refresh_cache(self) -> None:
        """(Re)build the cached prototype matrix in the policy compute dtype."""
        assert self._store is not None
        self._prototype_matrix = get_backend().asarray(self._store.as_matrix(self._classes))
        self._cached_version = self._store.version

    def prototype_matrix(self) -> np.ndarray:
        """The cached ``(n_classes, d)`` prototype matrix (row order = classes).

        Rebuilt when the store mutates (version bump) or the dtype policy
        changes — a classifier fitted under the reference profile must not
        keep serving float64 prototypes inside an edge-precision scope.
        """
        if self._store is None:
            raise NotFittedError("the NCM classifier has not been fitted")
        if (
            self._cached_version != self._store.version
            or self._prototype_matrix is None
            or self._prototype_matrix.dtype != default_dtype()
        ):
            self._refresh_cache()
        return self._prototype_matrix

    @property
    def version(self) -> Optional[int]:
        """The fitted prototype store's mutation counter (``None`` unfitted)."""
        return None if self._store is None else self._store.version

    @property
    def class_ids(self) -> np.ndarray:
        """:attr:`classes_` as an int64 array, in prototype-row order."""
        return self._class_ids

    @property
    def classes_(self) -> List[int]:
        if self._store is None:
            raise NotFittedError("the NCM classifier has not been fitted")
        return list(self._classes)

    # ------------------------------------------------------------------ #
    def distances(self, embeddings: np.ndarray) -> np.ndarray:
        """Distance of every embedding to every class prototype ``(n, n_classes)``."""
        if self._store is None:
            raise NotFittedError("the NCM classifier has not been fitted")
        backend = get_backend()
        embeddings = backend.asarray(embeddings)
        if embeddings.ndim == 1:
            embeddings = embeddings[None, :]
        prototypes = self.prototype_matrix()
        if embeddings.shape[1] != prototypes.shape[1]:
            raise DataError(
                f"embeddings have dimension {embeddings.shape[1]}, prototypes "
                f"{prototypes.shape[1]}"
            )
        return backend.pairwise_distances(embeddings, prototypes)

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        """Class id of the nearest prototype for every embedding."""
        nearest = np.argmin(self.distances(embeddings), axis=1)
        assert self._class_ids is not None
        return self._class_ids.take(nearest)
