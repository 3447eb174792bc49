"""Pair sampling for the Siamese contrastive objective.

Algorithm 1 (line 12) forms contrastive pairs between the old-class support
set ``D_0`` and the new-class data ``D_n``.  The paper additionally notes that
thanks to the distillation constraint on old-class embeddings, the number of
contrastive pairs can be reduced to the pairs involving new-class samples
(instead of all-vs-all pairs over every class): :meth:`PairSampler.sample`
centres its pairs on new classes when it is given them, and samples every pair
within the batch (pre-training, validation) when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.backend import get_backend
from repro.exceptions import DataError
from repro.utils.rng import RandomState, resolve_rng


#: Largest class id (exclusive) a membership lookup table covers.
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
    max_pairs:
        Upper bound on the number of pairs returned per call (uniform
        sub-sampling past it).
    rng:
        Seed or generator.
    """

    def __init__(self, max_pairs: int = 256, rng: RandomState = None) -> None:
        if max_pairs <= 0:
            raise DataError(f"max_pairs must be positive, got {max_pairs}")
        self.max_pairs = int(max_pairs)
        self._rng = resolve_rng(rng)

    # ------------------------------------------------------------------ #
    def sample(
        self,
        labels: np.ndarray,
        new_classes: Optional[set] = None,
    ) -> PairBatch:
        """Sample pairs among the rows described by ``labels``.

        With ``new_classes`` only pairs in which at least one member belongs
        to a new class are drawn; a batch with no new-class row, or a call
        without ``new_classes``, draws from every unordered pair.
        """
        labels = np.asarray(labels).reshape(-1)
        count = labels.shape[0]
        if count < 2:
            raise DataError("at least two samples are required to build pairs")
        if new_classes:
            # Membership is resolved once per row, then gathered per pair.
            row_is_new = class_membership(labels, new_classes)
            left, right = upper_triangle(count)
            involving = (row_is_new[left] | row_is_new[right]).nonzero()[0]
            if involving.size:  # the batch holds a new-class row
                return self._capped(labels, left[involving], right[involving])
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


@lru_cache(maxsize=16)
def _lookup_table(classes: frozenset) -> Optional[Tuple[np.int64, np.ndarray]]:
    """``(offset, table)`` resolving membership in ``classes`` (int ids), or
    ``None`` unless every id lies in ``[0, 2**16)``.

    The table covers ``[min id - 1, max id + 1]`` and ``table[label -
    offset]`` is the membership of ``label``; its two end entries are
    ``False``.  A fit passes one class set to every batch, so each set's
    table is built once and shared (read-only) by every caller.
    """
    if not classes or min(classes) < 0 or max(classes) >= _LOOKUP_LIMIT:
        return None
    offset = np.int64(min(classes) - 1)
    table = np.zeros(max(classes) - min(classes) + 3, dtype=bool)
    table[np.fromiter(classes, dtype=np.int64, count=len(classes)) - offset] = True
    table.flags.writeable = False
    return offset, table


def class_membership(labels: np.ndarray, classes) -> np.ndarray:
    """``np.isin(labels, classes)``, by a cached lookup table for class ids
    in ``[0, 2**16)`` and labels of an integer (or bool) dtype.

    A label is shifted by the table's offset and clipped into it, so a label
    outside the ids' range (or one whose shift wraps around) lands on an end
    entry, ``False``, with no per-call ``min``/``max`` over the labels.
    Other ids and labels fall back to ``np.isin``.
    """
    labels = np.asarray(labels)
    ids = frozenset(map(int, classes))
    lookup = _lookup_table(ids)
    kind = labels.dtype.kind  # the shift needs labels that int64 holds exactly
    if lookup is None or not (kind in "ib" or kind == "u" and labels.dtype.itemsize < 8):
        return np.isin(labels, np.asarray(sorted(ids), dtype=np.int64))
    offset, table = lookup
    return table.take(labels - offset, mode="clip")
