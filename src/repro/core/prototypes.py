"""Class prototypes in the embedding space.

A class prototype ``μ_y`` is the mean embedding of the class's exemplar set
(Eq. 1 of the paper).  The :class:`PrototypeStore` keeps one prototype per
class; PILOTE recomputes them whenever its exemplar sets change.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.exceptions import DataError, NotFittedError


class PrototypeStore:
    """Mutable mapping ``class id → prototype vector``.

    The store keeps a monotonically increasing ``version`` that bumps on
    every mutation; downstream caches (the NCM classifier's prototype matrix,
    the batched inference engine) use it to detect staleness cheaply.
    """

    def __init__(self, embedding_dim: Optional[int] = None) -> None:
        self._prototypes: Dict[int, np.ndarray] = {}
        self._embedding_dim = embedding_dim
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter used by downstream caches to detect staleness."""
        return self._version

    # ------------------------------------------------------------------ #
    def set(self, class_id: int, prototype: np.ndarray) -> None:
        """Insert or replace the prototype of one class."""
        prototype = np.asarray(prototype, dtype=np.float64).reshape(-1)
        if self._embedding_dim is None:
            self._embedding_dim = prototype.shape[0]
        elif prototype.shape[0] != self._embedding_dim:
            raise DataError(
                f"prototype for class {class_id} has dimension {prototype.shape[0]}, "
                f"expected {self._embedding_dim}"
            )
        self._prototypes[int(class_id)] = prototype
        self._version += 1

    def get(self, class_id: int) -> np.ndarray:
        if int(class_id) not in self._prototypes:
            raise KeyError(f"no prototype stored for class {class_id}")
        return self._prototypes[int(class_id)]

    def remove(self, class_id: int) -> None:
        if self._prototypes.pop(int(class_id), None) is not None:
            self._version += 1

    def __contains__(self, class_id: int) -> bool:
        return int(class_id) in self._prototypes

    def __len__(self) -> int:
        return len(self._prototypes)

    @property
    def classes(self) -> List[int]:
        """Sorted class ids with stored prototypes."""
        return sorted(self._prototypes)

    @property
    def embedding_dim(self) -> Optional[int]:
        return self._embedding_dim

    def as_matrix(self, classes: Optional[Iterable[int]] = None) -> np.ndarray:
        """Prototypes stacked as a ``(n_classes, d)`` matrix (row order = ``classes``)."""
        order = list(classes) if classes is not None else self.classes
        if not order:
            raise NotFittedError("the prototype store is empty")
        return np.stack([self.get(class_id) for class_id in order], axis=0)

    def nbytes(self, dtype_bytes: int = 4) -> int:
        """Storage footprint of the prototypes when serialised as float32."""
        if self._embedding_dim is None:
            return 0
        return len(self._prototypes) * self._embedding_dim * dtype_bytes
