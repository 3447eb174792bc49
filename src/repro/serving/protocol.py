"""Typed request/response protocol of the unified serving API.

Every serving surface in the library — a bare :class:`~repro.core.pilote.PILOTE`
learner, a :class:`~repro.edge.magneto.MagnetoPlatform`, a whole
:class:`~repro.fleet.FleetCoordinator` fleet — answers the same three types:

* :class:`PredictRequest` — who is asking (``user_id``), what for (a
  ``(n_windows, n_features)`` feature batch), by when (an optional simulated
  ``deadline_seconds``) and any opaque ``metadata`` the caller wants echoed
  back; :meth:`~repro.serving.ServingClient.submit` takes it, while the
  :meth:`~repro.serving.ServingClient.predict` one-liner takes bare
  features and builds a deadline-less request for user 0;
* :class:`PendingResult` — a future returned by
  :meth:`~repro.serving.ServingClient.submit` that completes on the simulated
  clock when the scheduler drains;
* :class:`PredictResponse` — per-window class decisions plus the serving
  facts (which device answered, simulated completion time, latency, whether
  the deadline was missed).

Failures are typed: :class:`~repro.exceptions.ServingError` subclasses such
as :class:`~repro.exceptions.DeadlineExceededError` come back through
:meth:`PendingResult.exception` / :meth:`PendingResult.result` rather than
escaping mid-drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidRequestError

__all__ = [
    "PredictRequest",
    "Prediction",
    "PredictResponse",
    "PendingResult",
]


@dataclass(frozen=True, eq=False)
class PredictRequest:
    """One user's inference request under the unified serving protocol.

    Compared by identity (``eq=False``): the generated field-wise ``==``
    would raise on the ndarray payload, and two requests carrying equal
    windows are still distinct requests.

    Attributes
    ----------
    user_id:
        Stable non-negative identity of the requesting user; routing policies
        shard or balance on it.
    features:
        ``(n_windows, n_features)`` feature batch (a single 1-D window is
        promoted to one row, by copy).  Both dimensions must be non-empty —
        a ``(n, 0)`` batch has nothing to classify and is rejected here
        with a typed :class:`~repro.exceptions.InvalidRequestError` instead
        of failing deep inside the engine GEMM.  The stored array is marked
        read-only at construction: batches coalesce into shared engine
        calls after submit, so post-submit mutation would silently corrupt
        co-batched requests.  A 2-D input is stored *without copying* (the
        hot path must not duplicate payloads), which means the caller's own
        array object becomes read-only — deliberate: mutating a submitted
        payload should fail loudly at the write site, not corrupt a batch.
    arrival_seconds:
        Simulated arrival time of the request.
    deadline_seconds:
        Optional absolute simulated deadline.  A request whose deadline is
        already unmeetable at submit is *rejected* by admission control (the
        future completes immediately with
        :class:`~repro.exceptions.DeadlineExceededError`); one whose service
        has not *started* by its deadline is *expired* with the same error
        at drain time; one that started in time but finished late is
        answered with ``deadline_missed=True``.  Deadlines also drive queue
        order under earliest-deadline-first scheduling
        (``serve(..., scheduling="edf")``).
    metadata:
        Opaque caller payload, echoed back on the response.
    request_id:
        Optional caller-assigned correlation id, echoed back on the response.
    """

    user_id: int
    features: np.ndarray
    arrival_seconds: float = 0.0
    deadline_seconds: Optional[float] = None
    metadata: Optional[Mapping[str, Any]] = None
    request_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise InvalidRequestError(
                f"user_id must be non-negative, got {self.user_id}"
            )
        features = np.asarray(self.features)
        if features.ndim == 1:
            # Promote to one row by copy: freezing a view of the caller's
            # 1-D buffer would not stop mutation through the base array.
            features = features[None, :].copy()
        if features.ndim != 2 or features.shape[0] == 0:
            raise InvalidRequestError(
                f"features must be a non-empty (n_windows, n_features) batch, "
                f"got shape {np.asarray(self.features).shape}"
            )
        if features.shape[1] == 0:
            raise InvalidRequestError(
                f"features must carry at least one feature per window, got "
                f"shape {features.shape}; a zero-feature batch cannot be "
                "classified"
            )
        # Freeze the payload: after submit it may be concatenated into a
        # coalesced engine batch, so caller mutation must fail loudly.
        features.setflags(write=False)
        object.__setattr__(self, "features", features)
        if self.deadline_seconds is not None and self.deadline_seconds <= self.arrival_seconds:
            raise InvalidRequestError(
                f"deadline_seconds ({self.deadline_seconds}) must be after "
                f"arrival_seconds ({self.arrival_seconds})"
            )

    @property
    def n_windows(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True)
class Prediction:
    """One window's class decision within a response."""

    window: int
    class_id: int


class PredictResponse:
    """Completed answer to one request (built lazily by the future).

    Carries the per-window class ids plus the serving facts recorded by the
    event-loop scheduler: the device that answered, the simulated completion
    time and the derived latency/deadline verdict.
    """

    __slots__ = ("request", "class_ids", "device_id", "completed_seconds")

    def __init__(
        self,
        request,
        class_ids: np.ndarray,
        device_id: int,
        completed_seconds: float,
    ) -> None:
        self.request = request
        self.class_ids = class_ids
        self.device_id = device_id
        self.completed_seconds = completed_seconds

    # ------------------------------------------------------------------ #
    @property
    def user_id(self) -> int:
        return self.request.user_id

    @property
    def request_id(self) -> Optional[int]:
        return self.request.request_id

    @property
    def metadata(self) -> Optional[Mapping[str, Any]]:
        return self.request.metadata

    @property
    def n_windows(self) -> int:
        return int(self.class_ids.shape[0])

    @property
    def latency_seconds(self) -> float:
        return self.completed_seconds - self.request.arrival_seconds

    @property
    def deadline_missed(self) -> bool:
        deadline = self.request.deadline_seconds
        return deadline is not None and self.completed_seconds > deadline

    @property
    def predictions(self) -> Tuple[Prediction, ...]:
        return tuple(
            Prediction(window=index, class_id=int(class_id))
            for index, class_id in enumerate(self.class_ids)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PredictResponse(user_id={self.user_id}, n_windows={self.n_windows}, "
            f"device_id={self.device_id}, completed={self.completed_seconds:.6f})"
        )


class PendingResult:
    """Future for one submitted request, completed on the simulated clock.

    This is the *interface* every serving future implements; the scheduler
    returns its batch-backed implementation (one three-slot view per
    request, sharing completion state with the whole engine batch).  The
    contract:

    * :meth:`done` — whether the request has been answered or failed;
    * :meth:`result` — the :class:`PredictResponse`; transparently drains
      the owning scheduler first, so ``submit(...).result()`` behaves like
      a synchronous call, and raises the typed
      :class:`~repro.exceptions.ServingError` on failure;
    * :meth:`exception` — the failure, or ``None``;
    * :meth:`add_done_callback` — runs ``callback(self)`` at completion
      (immediately if already done).
    """

    __slots__ = ("request",)

    def __init__(self, request) -> None:
        self.request = request

    def done(self) -> bool:
        """Whether the request has been answered (or failed)."""
        raise NotImplementedError  # repro: noqa[repro-errors] abstract protocol method

    def add_done_callback(self, callback: Callable[["PendingResult"], None]) -> None:
        """Run ``callback(self)`` at completion (immediately if already done)."""
        raise NotImplementedError  # repro: noqa[repro-errors] abstract protocol method

    def exception(self) -> Optional[BaseException]:
        """The request's failure, if any (drains the scheduler if pending)."""
        raise NotImplementedError  # repro: noqa[repro-errors] abstract protocol method

    def result(self) -> PredictResponse:
        """The completed response; raises the typed error on failure."""
        raise NotImplementedError  # repro: noqa[repro-errors] abstract protocol method

    def cancel(self) -> bool:
        """Best-effort cancellation of a still-queued request.

        Returns ``True`` when the request is marked for cancellation (it
        will resolve with :class:`~repro.exceptions.RequestCancelledError`
        unless its batch reaches service first — cancellation is advisory,
        never retroactive).  The base implementation is not cancellable and
        returns ``False``; the scheduler's batch-backed future overrides.
        """
        return False

    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was accepted for this future."""
        return False
