"""On-device serving engine.

:class:`InferenceEngine` is the handle a serving lane answers through.  Its
:meth:`~InferenceEngine.predict` is the learner's own Eq. 1 program —
``learner.classifier.predict(learner.model.embed(windows))``, the one
``PILOTE.predict`` runs — so a served class id and the learner's never
disagree.  ``EmbeddingNetwork.embed`` is the only code that chunks (in
:data:`~repro.core.embedding.EMBED_ROWS`-row steps) and
``NCMClassifier.predict`` the only single-lane NCM.

The engine holds a reference to its learner rather than copied state: after
an on-device incremental update (``learn_new_classes``,
``build_support_set``) or a direct prototype mutation, the very next
``predict`` call serves the new state with no explicit re-wiring.  It counts
the learner state versions it served from in ``cache_refreshes``.

The serving scheduler embeds the windows of lanes whose networks share
weights in one stacked call and classifies them against their stacked
prototypes (:func:`classify_stacked`); each lane takes that answer only if
:meth:`InferenceEngine.accept` finds its NCM state unchanged.

When serving leaves the process — the multi-process
:class:`~repro.serving.ProcessExecutor` runs one worker per lane group —
the worker rebuilds the learner from its shipped state
(:func:`~repro.core.persistence.pilote_from_state`) and serves it through an
engine of its own, so remote answers run this same code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import get_backend
from repro.exceptions import NotFittedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports edge lazily)
    from repro.core.ncm import NCMClassifier
    from repro.core.pilote import PILOTE


class InferenceEngine:
    """NCM serving over a (possibly still-learning) PILOTE learner.

    Parameters
    ----------
    learner:
        The :class:`~repro.core.pilote.PILOTE` instance to serve; every
        :meth:`predict` reads its current model and classifier.
    """

    def __init__(self, learner: "PILOTE") -> None:
        self.learner = learner
        self._cached_version: Optional[int] = None
        self.cache_refreshes = 0

    # ------------------------------------------------------------------ #
    def warm(self) -> None:
        """Build the serving caches ahead of the first request.

        Performs exactly the refresh the first ``predict`` call would —
        fitting the classifier if needed and materialising its prototype
        matrix under the active dtype policy — so a freshly deployed or
        checkpoint-restored device answers its first request at full speed
        instead of paying the rebuild inside that request's latency.
        Counted in ``cache_refreshes`` like any other refresh; a no-op when
        the caches are already current.
        """
        self._refresh_if_stale()
        self.learner.classifier.prototype_matrix()

    def _refresh_if_stale(self) -> None:
        """Make sure the learner has a classifier; count a new state version.

        The prototype matrix is not copied here: the classifier caches it
        keyed on the prototype store's mutation counter and the dtype
        policy, so direct store mutations and precision switches reach the
        engine without an invalidation channel.
        """
        learner = self.learner
        if learner.model is None:
            raise NotFittedError("the learner behind this engine has not been trained")
        learner._ensure_classifier()
        if self._cached_version != learner.state_version:
            self._cached_version = learner.state_version
            self.cache_refreshes += 1

    def ncm_state(self) -> Optional[tuple]:
        """``(classifier, prototype store version)`` the next :meth:`predict`
        would answer from; ``None`` while the learner has no classifier."""
        learner = self.learner
        if not learner._classifier_ready:
            return None
        return (learner.classifier, learner.classifier.version)

    def accept(self, state: tuple) -> bool:
        """Whether class ids :func:`classify_stacked` computed from ``state``
        still answer for this engine: its NCM state has not moved since.

        Runs :meth:`predict`'s refresh check first, so ``cache_refreshes``
        reads the same whether or not the lane was fused.
        """
        self._refresh_if_stale()
        return self.ncm_state() == state

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Class ids for a batch of raw feature windows (Eq. 1)."""
        self._refresh_if_stale()
        learner = self.learner
        return learner.classifier.predict(learner.model.embed(windows))


#: Most distances (rows x stacked prototypes) one fused distance call computes:
#: every row pays for every stacked prototype.  On a 2-vCPU x86 host (float32,
#: one BLAS thread, 32-wide embeddings) a call costs ~12 us plus ~5 ns a
#: distance, so a call this size costs about two small ones.
STACKED_DISTANCES = 2048


def classify_stacked(
    members: Sequence[Tuple["NCMClassifier", int]], embeddings: np.ndarray
) -> List[np.ndarray]:
    """Class ids for lanes whose networks share weights, from few distance calls.

    ``members`` lists ``(classifier, rows)`` per lane, in the order of their
    rows in ``embeddings``.  Consecutive lanes share a
    ``pairwise_distances`` call against their stacked prototypes, each row
    reading its own lane's block, while the call stays within
    :data:`STACKED_DISTANCES`; a lane past it starts a call of its own, the
    same call its ``classifier.predict`` makes.  Calls over several lanes
    run other GEMM shapes, so their distances may differ in the last bits
    and a lane's class id can differ from its own ``predict`` at a near-tie.
    Nothing is kept between calls.  Runs under the active dtype policy.
    """
    chunks: List[list] = []
    n_rows = n_columns = 0
    for classifier, rows in members:
        prototypes = classifier.prototype_matrix()
        columns = prototypes.shape[0]
        if not chunks or (n_rows + rows) * (n_columns + columns) > STACKED_DISTANCES:
            chunks.append([])
            n_rows = n_columns = 0
        chunks[-1].append((classifier, prototypes, rows))
        n_rows += rows
        n_columns += columns
    answers: List[np.ndarray] = []
    first = 0
    for chunk in chunks:
        _, blocks, row_counts = zip(*chunk)
        n_rows = sum(row_counts)
        distances = get_backend().pairwise_distances(
            embeddings[first:first + n_rows], np.concatenate(blocks)
        )
        row = column = 0
        for classifier, prototypes, rows in chunk:
            block = distances[row:row + rows, column:column + prototypes.shape[0]]
            answers.append(classifier.class_ids.take(np.argmin(block, axis=1)))
            row += rows
            column += prototypes.shape[0]
        first += n_rows
    return answers
