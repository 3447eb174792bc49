"""Pair sampling for the Siamese contrastive objective.

Algorithm 1 (line 12) forms contrastive pairs between the old-class support
set ``D_0`` and the new-class data ``D_n``.  The paper additionally notes that
thanks to the distillation constraint on old-class embeddings, the number of
contrastive pairs can be reduced to the pairs involving new-class samples
(instead of all-vs-all pairs over every class), which is the "new_centred"
strategy implemented here.  An "all" strategy (every pair within the batch) is
available for pre-training and ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.backend import get_backend
from repro.exceptions import DataError
from repro.utils.rng import RandomState, resolve_rng


#: Largest label (exclusive) resolved by a membership lookup table.
_LOOKUP_LIMIT = 1 << 16


@lru_cache(maxsize=16)
def upper_triangle(count: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(count, k=1)``, built once per ``count``.

    The arrays are shared by every caller, so they are read-only: a write
    to a :class:`PairBatch` holding them raises instead of corrupting the
    cache.  Batches come in a few sizes (the batch size and an epoch's
    remainder), so a small cache holds them all.
    """
    left, right = np.triu_indices(count, k=1)
    left.flags.writeable = False
    right.flags.writeable = False
    return left, right


@dataclass
class PairBatch:
    """Index representation of a set of sample pairs within a mini-batch.

    ``left`` and ``right`` index rows of the batch; ``same_class`` holds the
    binary pair label ``Y`` of Eq. 2 (1 when the two rows share a class).
    """

    left: np.ndarray
    right: np.ndarray
    same_class: np.ndarray

    def __post_init__(self) -> None:
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.same_class = get_backend().asarray(self.same_class)
        if not (self.left.shape == self.right.shape == self.same_class.shape):
            raise DataError("pair index arrays must share the same shape")


class PairSampler:
    """Builds :class:`PairBatch` objects from mini-batch labels.

    Parameters
    ----------
    strategy:
        ``"all"`` — every unordered pair in the batch (capped at ``max_pairs``
        by uniform sub-sampling); ``"new_centred"`` — only pairs in which at
        least one member belongs to a designated set of new classes;
        ``"balanced"`` — equal numbers of positive and negative pairs drawn at
        random.
    max_pairs:
        Upper bound on the number of pairs returned per call.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        strategy: str = "all",
        max_pairs: int = 256,
        rng: RandomState = None,
    ) -> None:
        if strategy not in ("all", "new_centred", "balanced"):
            raise DataError(
                f"strategy must be one of 'all', 'new_centred', 'balanced', got {strategy!r}"
            )
        if max_pairs <= 0:
            raise DataError(f"max_pairs must be positive, got {max_pairs}")
        self.strategy = strategy
        self.max_pairs = int(max_pairs)
        self._rng = resolve_rng(rng)

    # ------------------------------------------------------------------ #
    def sample(
        self,
        labels: np.ndarray,
        new_classes: Optional[set] = None,
    ) -> PairBatch:
        """Sample pairs among the rows described by ``labels``."""
        labels = np.asarray(labels).reshape(-1)
        count = labels.shape[0]
        if count < 2:
            raise DataError("at least two samples are required to build pairs")
        if self.strategy == "balanced":
            return self._balanced(labels)
        if self.strategy == "new_centred":
            if not new_classes:
                raise DataError("new_centred pair sampling requires the set of new classes")
            # Membership is resolved once per row, then gathered per pair.
            row_is_new = class_membership(labels, new_classes)
            if row_is_new.any():
                left, right = upper_triangle(count)
                involves_new = row_is_new[left] | row_is_new[right]
                return self._capped(labels, left[involves_new], right[involves_new])
            # A batch of exemplars only falls back to all pairs.
        return self._all_pairs(labels)

    def _capped(self, labels: np.ndarray, left: np.ndarray, right: np.ndarray) -> PairBatch:
        if left.size > self.max_pairs:
            chosen = self._rng.choice(left.size, size=self.max_pairs, replace=False)
            left, right = left[chosen], right[chosen]
        return PairBatch(left=left, right=right, same_class=labels[left] == labels[right])

    def _all_pairs(self, labels: np.ndarray) -> PairBatch:
        """Every unordered pair, or ``max_pairs`` of them drawn uniformly.

        The draw is over positions in ``np.triu_indices(count, k=1)`` order;
        a position maps to its pair in closed form, so the O(count²) index
        arrays are never built when the cap applies.
        """
        count = labels.shape[0]
        total = count * (count - 1) // 2
        if total <= self.max_pairs:
            left, right = upper_triangle(count)
        else:
            chosen = self._rng.choice(total, size=self.max_pairs, replace=False)
            # Row i holds the pairs (i, i+1) .. (i, count-1), starting at offset[i].
            rows = np.arange(count - 1)
            offsets = rows * (2 * count - rows - 1) // 2
            left = np.searchsorted(offsets, chosen, side="right") - 1
            right = chosen - offsets[left] + left + 1
        return PairBatch(left=left, right=right, same_class=labels[left] == labels[right])

    # ------------------------------------------------------------------ #
    def _balanced(self, labels: np.ndarray) -> PairBatch:
        count = labels.shape[0]
        left, right = upper_triangle(count)
        same = labels[left] == labels[right]
        positive = np.flatnonzero(same)
        negative = np.flatnonzero(~same)
        per_side = self.max_pairs // 2
        if positive.size == 0 or negative.size == 0:
            # Degenerate batch (single class): return whatever pairs exist.
            chosen = np.arange(left.size)
            if chosen.size > self.max_pairs:
                chosen = self._rng.choice(chosen, size=self.max_pairs, replace=False)
        else:
            take_pos = min(per_side, positive.size)
            take_neg = min(per_side, negative.size)
            chosen = np.concatenate(
                [
                    self._rng.choice(positive, size=take_pos, replace=False),
                    self._rng.choice(negative, size=take_neg, replace=False),
                ]
            )
        left, right = left[chosen], right[chosen]
        return PairBatch(
            left=left,
            right=right,
            same_class=labels[left] == labels[right],
        )


def class_membership(labels: np.ndarray, classes) -> np.ndarray:
    """``np.isin(labels, classes)`` by table lookup for small non-negative
    integer labels (the per-batch case), falling back to ``np.isin``."""
    labels = np.asarray(labels)
    ids = np.asarray(sorted(int(c) for c in classes), dtype=np.int64)
    if labels.dtype.kind not in "iu" or labels.size == 0 or ids.size == 0:
        return np.isin(labels, ids)
    low, high = int(labels.min()), int(labels.max())
    if low < 0 or high >= _LOOKUP_LIMIT:
        return np.isin(labels, ids)
    table = np.zeros(high + 1, dtype=bool)
    table[ids[(ids >= 0) & (ids <= high)]] = True
    return table[labels]
