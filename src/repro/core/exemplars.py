"""Exemplar ("support set") selection and storage.

Algorithm 1 of the paper selects, for every old class, the ``m = K / (s − 1)``
samples whose running embedding mean best approximates the class prototype —
the *herding* construction also used by iCaRL.  The resulting support set is
what the cloud ships to the edge device alongside the pre-trained model, so its
byte size is the quantity Q2 of the paper reasons about.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.backend import default_dtype, get_backend
from repro.data.dataset import HARDataset
from repro.exceptions import DataError
from repro.utils.rng import RandomState, resolve_rng
from repro.utils.serialization import float32_nbytes


def herding_selection(
    features: np.ndarray,
    embeddings: np.ndarray,
    n_exemplars: int,
) -> np.ndarray:
    """Indices of the herding-selected exemplars of one class.

    Implements lines 4–7 of Algorithm 1: iteratively pick the sample whose
    inclusion keeps the mean of the selected embeddings closest to the class
    prototype ``μ_y`` (each sample is selected at most once).

    Parameters
    ----------
    features:
        ``(n, d)`` raw feature rows of the class (only used for counting).
    embeddings:
        ``(n, e)`` embeddings of the same rows under the current model.
    n_exemplars:
        Number of exemplars ``m`` to select (capped at ``n``).

    Returns
    -------
    numpy.ndarray
        Indices into the class's rows, in selection order.

    Notes
    -----
    The selection at step ``k`` minimises ``||(S + e_i)/k − μ||`` over the
    remaining candidates, where ``S`` is the running sum of the already
    selected embeddings.  Expanding the square and dropping the terms that
    are constant across candidates, the argmin reduces to

        ``argmin_i  ||e_i||² + 2 · e_i · (S − k·μ)``

    so each step costs one matrix-vector product into one ``scores`` vector,
    allocated once per call, instead of materialising the ``(n, d)``
    candidate-mean matrix and its row norms — the same selection, a fraction
    of the allocations.
    """
    embeddings = get_backend().asarray(embeddings)
    if embeddings.ndim != 2:
        raise DataError(f"embeddings must be 2-D, got shape {embeddings.shape}")
    count = embeddings.shape[0]
    if np.asarray(features).shape[0] != count:
        raise DataError("features and embeddings must describe the same rows")
    if n_exemplars <= 0:
        raise DataError(f"n_exemplars must be positive, got {n_exemplars}")
    n_exemplars = min(int(n_exemplars), count)

    prototype = embeddings.mean(axis=0)
    squared_norms = np.einsum("ij,ij->i", embeddings, embeddings)
    running_sum = np.zeros_like(prototype)
    centre = np.empty_like(prototype)
    available = np.ones(count, dtype=bool)
    scores = np.empty(count, dtype=embeddings.dtype)
    selected: List[int] = []
    for step in range(1, n_exemplars + 1):
        np.multiply(prototype, -float(step), out=centre)
        centre += running_sum
        np.dot(embeddings, centre, out=scores)
        scores *= 2.0
        scores += squared_norms
        scores[~available] = np.inf
        best = int(np.argmin(scores))
        selected.append(best)
        available[best] = False
        running_sum += embeddings[best]
    return np.asarray(selected, dtype=np.int64)


def random_selection(
    features: np.ndarray,
    embeddings: np.ndarray,
    n_exemplars: int,
    rng: RandomState = None,
) -> np.ndarray:
    """Uniformly random exemplar selection (the paper's "random exemplars" setting)."""
    count = np.asarray(features).shape[0]
    if n_exemplars <= 0:
        raise DataError(f"n_exemplars must be positive, got {n_exemplars}")
    generator = resolve_rng(rng)
    take = min(int(n_exemplars), count)
    return np.sort(generator.choice(count, size=take, replace=False)).astype(np.int64)


SelectionFn = Callable[[np.ndarray, np.ndarray, int], np.ndarray]


class ExemplarStore:
    """Per-class exemplar sets ``P = (P_1, ..., P_t)``.

    The store keeps the raw feature rows (not embeddings) so that exemplars can
    be re-embedded whenever the model changes, exactly as Algorithm 1 requires.

    Parameters
    ----------
    capacity:
        Total cache size ``K``; ``None`` means unbounded (used by ablations).
    strategy:
        ``"herding"`` or ``"random"``.
    rng:
        Seed or generator for random selection.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        strategy: str = "herding",
        rng: RandomState = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise DataError(f"capacity must be positive, got {capacity}")
        if strategy not in ("herding", "random"):
            raise DataError(f"strategy must be 'herding' or 'random', got {strategy!r}")
        self.capacity = capacity
        self.strategy = strategy
        self._rng = resolve_rng(rng)
        self._exemplars: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    @property
    def classes(self) -> List[int]:
        return sorted(self._exemplars)

    def __contains__(self, class_id: int) -> bool:
        return int(class_id) in self._exemplars

    def __len__(self) -> int:
        return len(self._exemplars)

    def exemplars_per_class(self) -> Dict[int, int]:
        """Mapping ``class id → number of stored exemplars``."""
        return {class_id: rows.shape[0] for class_id, rows in self._exemplars.items()}

    def per_class_budget(self) -> Optional[int]:
        """``m = K / n_classes`` over the stored classes (Algorithm 1, line 1).

        ``None`` when unbounded; an empty store grants one class the whole
        capacity.
        """
        if self.capacity is None:
            return None
        return max(self.capacity // max(len(self._exemplars), 1), 1)

    # ------------------------------------------------------------------ #
    def select(
        self,
        class_id: int,
        features: np.ndarray,
        embeddings: np.ndarray,
        n_exemplars: Optional[int] = None,
    ) -> np.ndarray:
        """Select and store exemplars for one class; returns the chosen indices."""
        features = get_backend().asarray(features)
        if features.ndim != 2 or features.shape[0] == 0:
            raise DataError(f"features for class {class_id} must be a non-empty 2-D array")
        budget = n_exemplars
        if budget is None:
            budget = self.per_class_budget()
        if budget is None:
            budget = features.shape[0]
        if self.strategy == "herding":
            indices = herding_selection(features, embeddings, budget)
        else:
            indices = random_selection(features, embeddings, budget, rng=self._rng)
        self._exemplars[int(class_id)] = features[indices].copy()
        return indices

    def set_exemplars(
        self, class_id: int, features: np.ndarray, *, copy: bool = True
    ) -> None:
        """Directly store exemplar rows for a class (used when re-balancing).

        ``copy=False`` stores the (policy-dtype) array **aliased**, without a
        defensive copy — the copy-on-write path pooled fleet templates use to
        share one support set across many devices.  The aliasing contract:

        * the store itself only ever *replaces* whole per-class entries
          (``select``/``set_exemplars``) and never mutates rows in place, so
          sharing is safe from this side;
        * the caller must extend the same promise to the array it handed
          over: any later in-place write to it silently changes what
          :meth:`get`/:meth:`as_dataset` return, and the next prototype
          refresh folds the corrupted rows into the class means.  Re-balance
          by **replacing** entries, never by mutating the arrays behind them.
        * note that ``copy=False`` only aliases when the input already has
          the policy compute dtype — ``asarray`` with a differing dtype
          materialises a cast, which is a silent defensive copy.

        Tests pin this down from both sides (``tests/test_core_exemplars
        .py``): ``copy=True`` isolates the store from post-hoc mutation,
        ``copy=False`` demonstrably aliases.
        """
        features = get_backend().asarray(features)
        if features.ndim != 2 or features.shape[0] == 0:
            raise DataError("exemplar features must be a non-empty 2-D array")
        self._exemplars[int(class_id)] = features.copy() if copy else features

    def get(self, class_id: int) -> np.ndarray:
        if int(class_id) not in self._exemplars:
            raise KeyError(f"no exemplars stored for class {class_id}")
        return self._exemplars[int(class_id)]

    # ------------------------------------------------------------------ #
    def as_dataset(self, extra: Optional[HARDataset] = None) -> Tuple[np.ndarray, np.ndarray]:
        """All exemplars as ``(features, labels)`` arrays (the support set
        ``D_0``), followed by the rows of ``extra`` when one is given.

        The features come out in the policy compute dtype from one
        concatenation, so every row is copied once, straight into it.
        """
        if not self._exemplars:
            raise DataError("the exemplar store is empty")
        features = []
        labels = []
        for class_id in self.classes:
            rows = self._exemplars[class_id]
            features.append(rows)
            labels.append(np.full(rows.shape[0], class_id, dtype=np.int64))
        if extra is not None:
            features.append(extra.features)
            labels.append(extra.labels)
        return (np.concatenate(features, axis=0, dtype=default_dtype()),
                np.concatenate(labels, axis=0))

    def nbytes(self) -> int:
        """Storage footprint of the support set serialised as float32."""
        return float32_nbytes(sum(rows.size for rows in self._exemplars.values()))
