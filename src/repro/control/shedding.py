"""Load-shedding admission control: reject doomed work before it queues.

The shedder installs itself as the scheduler's ``admission`` hook (the
seam PR 4's ``_RejectedResult`` path left open): for every deadline-
carrying request that clears the hard admission floor, it may still
return an error, rejecting the request before it occupies queue space.

Two layers keep it honest:

* **Hysteresis activation** — shedding only engages while the fleet-wide
  queue is deeper than ``high_queue_per_lane`` requests per lane, and
  disengages below ``low_queue_per_lane``; a healthy system pays zero
  per-request overhead (the hook returns immediately).
* **Queue-order-aware projection** — while active, a request is shed only
  when the lane's *projected service start* (via
  ``EventLoopScheduler.projected_begin_for``, which counts only the queued
  work the lane would actually serve first — everything on FIFO lanes,
  earlier-or-equal deadlines on EDF lanes) already lies past its deadline.
  A request EDF could still save is therefore never shed; what is shed is
  exactly the work that would otherwise sit in the queue until expiry.

Shed requests fail with :class:`~repro.exceptions.RequestSheddedError`
(a ``DeadlineExceededError`` subtype — same caller contract as any
admission rejection) and are counted in ``RoutingReport.total_shed``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.control.plane import Controller
from repro.control.signals import ControlSignals
from repro.exceptions import ConfigurationError, RequestSheddedError

__all__ = ["LoadShedder"]


class LoadShedder(Controller):
    """Hysteresis-gated, projection-based admission control."""

    name = "load-shedder"

    def __init__(
        self,
        *,
        high_queue_per_lane: float = 48.0,
        low_queue_per_lane: float = 12.0,
    ) -> None:
        if not 0.0 <= low_queue_per_lane < high_queue_per_lane:
            raise ConfigurationError(
                "watermarks must satisfy 0 <= low < high, got "
                f"low={low_queue_per_lane}, high={high_queue_per_lane}"
            )
        self.high_queue_per_lane = float(high_queue_per_lane)
        self.low_queue_per_lane = float(low_queue_per_lane)
        #: Whether shedding is currently engaged (hysteresis state).
        self.active = False
        self.shed_count = 0
        self.activations = 0
        # (position, arrival, deadline) -> projected begin, cleared per wave.
        # Requests in one wave share few distinct (lane, deadline-class)
        # pairs, so projection runs once per pair, not once per request.
        self._projection_cache: Dict[tuple, float] = {}

    def bind(self, plane) -> None:
        super().bind(plane)
        plane.scheduler.admission = self

    # -- plane hooks ----------------------------------------------------- #
    def on_submit(self, requests, futures, signals: ControlSignals):
        # The hook runs after this wave queued, so the toggle takes effect
        # from the *next* wave — standard one-tick control lag.
        per_lane = signals.queue_depth / max(signals.n_lanes, 1)
        if not self.active and per_lane > self.high_queue_per_lane:
            self.active = True
            self.activations += 1
        elif self.active and per_lane < self.low_queue_per_lane:
            self.active = False
        self._projection_cache.clear()
        return futures

    # -- scheduler admission hook ---------------------------------------- #
    def shed(self, request, position, floor, scheduler) -> Optional[BaseException]:
        """The scheduler's per-request admission question.

        Returns ``None`` to admit; an error to reject before queueing.
        Only called for deadline-carrying requests that already cleared the
        hard floor (``floor <= deadline``).
        """
        if not self.active:
            return None
        deadline = request.deadline_seconds
        arrival = float(request.arrival_seconds)
        key = (position, arrival, deadline)
        projected = self._projection_cache.get(key)
        if projected is None:
            projected = scheduler.projected_begin_for(position, arrival, deadline)
            self._projection_cache[key] = projected
        if projected <= deadline:
            return None
        self.shed_count += 1
        return RequestSheddedError(
            f"user {request.user_id}: shed by admission control — lane "
            f"{position}'s projected service start {projected:.6f}s is past "
            f"the deadline {deadline:.6f}s"
        )

    # -- telemetry ------------------------------------------------------- #
    def stats(self) -> Dict[str, object]:
        return {
            "active": self.active,
            "shed": self.shed_count,
            "activations": self.activations,
        }
