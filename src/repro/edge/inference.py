"""Batched on-device serving engine.

``PILOTE.predict`` is fine for a single window but does redundant work when a
device serves a stream: every call re-derives the classifier state and walks
the whole embed→distance→argmin pipeline per request.  The
:class:`InferenceEngine` is the serving-side counterpart of the learner:

* it **serves from cached prototype state**: the class-id lookup array is
  rebuilt only when the learner's ``state_version`` changes, and the
  prototype matrix comes from the classifier's own cache (keyed on the
  prototype store's mutation counter and the dtype policy) — so incremental
  updates (``learn_new_classes``, ``build_support_set``) and even direct
  prototype mutations invalidate transparently;
* it **accepts many windows at once** and processes them in bounded batches,
  keeping peak memory flat on resource-starved devices;
* it **shares the exact kernels** of the NCM classifier (same backend
  distance GEMM, same ``take``-based id mapping), so batched predictions
  match the unbatched learner path at equal dtype.

The engine holds a reference to its learner rather than copied state: after
an on-device incremental update the very next ``predict`` call serves the
new classes with no explicit re-wiring.

``predict`` is ``classify(embed(windows))``.  The serving scheduler embeds
the windows of lanes whose networks share weights in one stacked call and
classifies them against their stacked prototypes (:func:`classify_stacked`);
each engine takes its answer through :meth:`InferenceEngine.accept`.

When serving leaves the process — the multi-process
:class:`~repro.serving.ProcessExecutor` runs one worker per lane group —
the worker rebuilds the learner from its shipped state
(:func:`~repro.core.persistence.pilote_from_state`) and serves it through an
engine of its own, so remote answers run this same code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import get_backend
from repro.exceptions import DataError, NotFittedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports edge lazily)
    from repro.core.ncm import NCMClassifier
    from repro.core.pilote import PILOTE


class InferenceEngine:
    """Batched NCM serving over a (possibly still-learning) PILOTE learner.

    Parameters
    ----------
    learner:
        The :class:`~repro.core.pilote.PILOTE` instance to serve.  The engine
        follows the learner's state: caches are keyed by
        ``learner.state_version``.
    batch_size:
        Maximum number of windows embedded per internal step; bounds peak
        working memory during large requests.

    :meth:`predict` embeds through the learner, then :meth:`classify` runs
    the NCM half (refresh check, prototype distances, class-id ``take``).
    Fused serving answers several engines at once (:func:`classify_stacked`)
    and counts each answer through :meth:`accept`.
    """

    def __init__(self, learner: "PILOTE", *, batch_size: int = 256) -> None:
        if batch_size <= 0:
            raise DataError(f"batch_size must be positive, got {batch_size}")
        self._learner = learner
        self.batch_size = int(batch_size)
        self._cached_version: Optional[int] = None
        self._classifier = None
        self._class_ids: Optional[np.ndarray] = None
        self.windows_served = 0
        self.batches_served = 0
        self.cache_refreshes = 0

    # ------------------------------------------------------------------ #
    @property
    def learner(self) -> "PILOTE":
        return self._learner

    def invalidate(self) -> None:  # repro: noqa[repro-unused] benchmarks/bench_backend.py
        """Force a prototype-cache rebuild on the next request."""
        self._cached_version = None

    def warm(self) -> None:
        """Build the serving caches ahead of the first request.

        Performs exactly the refresh the first ``predict`` call would —
        re-binding the classifier, materialising the class-id lookup and the
        prototype matrix under the active dtype policy — so a freshly
        deployed or checkpoint-restored device answers its first request at
        full speed instead of paying the rebuild inside that request's
        latency.  Counted in ``cache_refreshes`` like any other rebuild; a
        no-op when the caches are already current.
        """
        self._refresh_if_stale()
        assert self._classifier is not None
        self._classifier.prototype_matrix()

    def _refresh_if_stale(self) -> None:
        """Re-bind the learner's classifier when its state version moved.

        The prototype matrix itself is *not* copied here: the classifier
        already caches it keyed on the prototype store's mutation counter and
        the dtype policy, so direct store mutations and precision switches
        propagate to the engine without an extra invalidation channel.
        """
        learner = self._learner
        if learner.model is None:
            raise NotFittedError("the learner behind this engine has not been trained")
        learner._ensure_classifier()
        if self._cached_version == learner.state_version:
            return
        self._classifier = learner.classifier
        self._class_ids = np.asarray(self._classifier.classes_, dtype=np.int64)
        self._cached_version = learner.state_version
        self.cache_refreshes += 1

    def cache_info(  # repro: noqa[repro-unused] test oracle: tests/test_serving_fusion.py
        self,
    ) -> Dict[str, int]:
        """Serving statistics (useful for benchmarks and monitoring)."""
        return {
            "windows_served": self.windows_served,
            "batches_served": self.batches_served,
            "cache_refreshes": self.cache_refreshes,
            "cached_classes": 0 if self._class_ids is None else int(self._class_ids.size),
        }

    # ------------------------------------------------------------------ #
    def _embed(self, windows: np.ndarray) -> np.ndarray:
        """Embeddings of raw windows, ``batch_size`` rows per model call."""
        return _embed_in_chunks(
            self._learner.embed, windows, self.batch_size,
            self._learner.config.embedding_dim,
        )

    def _distances(self, embeddings: np.ndarray) -> np.ndarray:
        """``(n, n_classes)`` prototype distances of current-state embeddings."""
        classifier = self._classifier
        distances = _prototype_distances(
            embeddings, classifier.prototype_matrix(), self.batch_size
        )
        self._count(int(embeddings.shape[0]))
        return distances

    def _count(self, n_windows: int) -> None:
        self.batches_served += -(-n_windows // self.batch_size)
        self.windows_served += n_windows

    def classify(self, embeddings: np.ndarray) -> np.ndarray:
        """Class ids for already-embedded windows — the NCM half of :meth:`predict`.

        Runs the refresh check, the prototype distances (one GEMM per
        ``batch_size`` rows, the chunks :meth:`predict` embeds in) and the
        class-id ``take``.
        """
        self._refresh_if_stale()
        distances = self._distances(embeddings)
        return self._class_ids.take(np.argmin(distances, axis=1))

    def ncm_state(self) -> Optional[tuple]:
        """``(classifier, prototype store version)`` the next :meth:`classify`
        would answer from; ``None`` while the learner has no classifier."""
        learner = self._learner
        if not learner._classifier_ready:
            return None
        if self._cached_version == learner.state_version:
            classifier = self._classifier
        else:
            classifier = learner.classifier  # what the refresh will bind
        return (classifier, classifier.version)

    def accept(self, class_ids: np.ndarray, state: tuple) -> bool:
        """Count ``class_ids`` that :func:`classify_stacked` computed from
        ``state`` as served; ``False`` (nothing counted) once the NCM state
        has moved.  Runs :meth:`classify`'s refresh check first, so the
        counters read the same whether or not the lane was fused."""
        self._refresh_if_stale()
        if self.ncm_state() != state:
            return False
        self._count(int(class_ids.shape[0]))
        return True

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Class ids for a batch of raw feature windows."""
        return self.classify(self._embed(windows))


#: Most distances (rows x stacked prototypes) one fused distance call computes:
#: every row pays for every stacked prototype.  On a 2-vCPU x86 host (float32,
#: one BLAS thread, 32-wide embeddings) a call costs ~12 us plus ~5 ns a
#: distance, so a call this size costs about two small ones.
STACKED_DISTANCES = 2048


def classify_stacked(
    members: Sequence[Tuple["NCMClassifier", int, int]], embeddings: np.ndarray
) -> List[np.ndarray]:
    """Class ids for lanes whose networks share weights, from few distance calls.

    ``members`` lists ``(classifier, rows, batch_size)`` per lane, in the
    order of their rows in ``embeddings``.  Consecutive
    lanes share a ``pairwise_distances`` call against their stacked
    prototypes, each row reading its own lane's block, while the call stays
    within :data:`STACKED_DISTANCES`; a lane past it is classified alone, in
    its engine's ``batch_size`` chunks.  Nothing is kept between calls.  Runs
    under the active dtype policy and counts nothing (see ``accept``).
    """
    chunks: List[list] = []
    n_rows = n_columns = 0
    for classifier, rows, batch_size in members:
        prototypes = classifier.prototype_matrix()
        columns = prototypes.shape[0]
        if not chunks or (n_rows + rows) * (n_columns + columns) > STACKED_DISTANCES:
            chunks.append([])
            n_rows = n_columns = 0
        chunks[-1].append((classifier, prototypes, rows, batch_size))
        n_rows += rows
        n_columns += columns
    answers: List[np.ndarray] = []
    first = 0
    for chunk in chunks:
        _, blocks, row_counts, batch_sizes = zip(*chunk)
        n_rows = sum(row_counts)
        distances = _prototype_distances(
            embeddings[first:first + n_rows], np.concatenate(blocks), min(batch_sizes)
        )
        row = column = 0
        for classifier, prototypes, rows, _ in chunk:
            block = distances[row:row + rows, column:column + prototypes.shape[0]]
            answers.append(classifier.class_ids.take(np.argmin(block, axis=1)))
            row += rows
            column += prototypes.shape[0]
        first += n_rows
    return answers


def _embed_in_chunks(
    embed, windows: np.ndarray, batch_size: int, embedding_dim: int
) -> np.ndarray:
    """``embed`` over raw windows, at most ``batch_size`` rows per call.

    Bounds peak working memory on large requests; a 1-D window is one row
    and an empty request embeds nothing.
    """
    windows = get_backend().asarray(windows)
    if windows.ndim == 1:
        windows = windows[None, :]
    n_windows = windows.shape[0]
    if n_windows == 0:
        return get_backend().zeros((0, embedding_dim))
    if n_windows <= batch_size:
        return embed(windows)
    return np.concatenate([
        embed(windows[start:start + batch_size])
        for start in range(0, n_windows, batch_size)
    ], axis=0)


def _prototype_distances(
    embeddings: np.ndarray, prototypes: np.ndarray, batch_size: int
) -> np.ndarray:
    """``(n, n_classes)`` distances, one GEMM per ``batch_size``-row chunk.

    The chunks are the ones :func:`_embed_in_chunks` embeds, so a lane
    :func:`classify_stacked` classifies alone runs the live engine's GEMM
    shapes.  Lanes stacked into one call
    run other shapes: their distances may differ in the last bits, so a
    lane's class id can differ from its own ``predict`` at a near-tie.
    """
    backend = get_backend()
    n_windows = embeddings.shape[0]
    if n_windows == 0:
        return backend.zeros((0, prototypes.shape[0]))
    if n_windows <= batch_size:
        return backend.pairwise_distances(embeddings, prototypes)
    return np.concatenate([
        backend.pairwise_distances(embeddings[start:start + batch_size], prototypes)
        for start in range(0, n_windows, batch_size)
    ], axis=0)
