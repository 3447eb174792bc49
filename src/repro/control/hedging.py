"""The control plane: hedged requests, fired when the chosen lane looks late.

A :class:`ControlPlane` attached to a serving client inspects every
submitted wave's deadline-carrying requests that were queued (not
rejected) and, for each one whose lane is *at risk* — its projected
service start (queue-order aware, via
``EventLoopScheduler.projected_begin_for``) already lies past the deadline,
or the lane failed requests inside the recent-failure window (a dying
worker fails fast, looks idle, and keeps attracting p2c traffic — the
failure-vortex this signal breaks) — submits a clone of the request on an
*alternate* lane and wraps both attempts in a :class:`HedgedResult`.  The
window is the plane's own: one snapshot of the scheduler's cumulative
per-lane failures (``EventLoopScheduler.lane_failures``, which survive
device replacement) per submission over the last :data:`WINDOW`
submissions, the oldest diffed against now.

First completion wins; the loser is cancelled (advisory — see
``PendingResult.cancel``).  Exactly-once accounting, proven by the chaos
suite and ``RoutingReport``'s counters:

* the caller's future resolves exactly once, with the winner's outcome;
* a cancelled loser resolves with
  :class:`~repro.exceptions.RequestCancelledError` and is counted in
  ``total_cancelled`` — excluded from the SLO denominator, because its
  logical request *was* answered (by the twin);
* a loser whose batch reached service anyway is counted as *wasted*
  (``losers_served``) — duplicated compute, never a duplicated answer;
* only when **both** attempts fail does the pair fail, with the primary's
  error (``pairs_failed``).

The alternate lane is the p2c *sibling* where the routing policy exposes
its candidate pair (:meth:`~repro.serving.routing.PowerOfTwoRouting
.candidates`), else the healthiest lane by (not-failing, earliest
projected begin).  A hedge is only fired when the alternate actually
improves the request's odds — hedging into an equally-doomed lane would
just double the overload.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, RequestCancelledError, ServingError
from repro.serving.protocol import PendingResult, PredictRequest

__all__ = ["ControlPlane", "HedgedResult", "HedgeStats", "WINDOW"]

#: Submissions the recent-failure window covers.
WINDOW = 8

#: Safety margin added to a projected begin before comparing it with the
#: deadline (``0`` hedges only projected-certain misses).
SLACK_SECONDS = 0.0

#: Failures inside the window past which a lane counts as unhealthy.
UNHEALTHY_FAILURES = 1


@dataclass
class HedgeStats:
    """Exactly-once ledger over every hedged pair.

    After all attempts resolve: ``fired == primary_wins + hedge_wins +
    pairs_failed`` (each pair settles exactly once) and the losers of the
    settled-with-a-winner pairs partition as ``losers_cancelled +
    losers_served + losers_failed == primary_wins + hedge_wins``.
    """

    fired: int = 0
    primary_wins: int = 0
    hedge_wins: int = 0
    pairs_failed: int = 0
    losers_cancelled: int = 0
    losers_served: int = 0
    losers_failed: int = 0

    @property
    def settled(self) -> int:
        return self.primary_wins + self.hedge_wins + self.pairs_failed

    @property
    def losers_resolved(self) -> int:
        return self.losers_cancelled + self.losers_served + self.losers_failed

    def consistent(self) -> bool:  # repro: noqa[repro-unused] test oracle: tests/test_control.py
        """The exactly-once invariant over fully-resolved pairs."""
        return (
            self.settled == self.fired
            and self.losers_resolved == self.primary_wins + self.hedge_wins
        )

    def to_dict(self) -> Dict[str, int]:
        return {
            "fired": self.fired,
            "primary_wins": self.primary_wins,
            "hedge_wins": self.hedge_wins,
            "pairs_failed": self.pairs_failed,
            "losers_cancelled": self.losers_cancelled,
            "losers_served": self.losers_served,
            "losers_failed": self.losers_failed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, int]) -> "HedgeStats":
        keys = (
            "fired", "primary_wins", "hedge_wins", "pairs_failed",
            "losers_cancelled", "losers_served", "losers_failed",
        )
        return cls(**{key: int(payload.get(key, 0)) for key in keys})


class HedgedResult(PendingResult):
    """First-completion-wins pair of attempts for one logical request.

    Presents the :class:`~repro.serving.protocol.PendingResult` interface:
    done once a winner (or the both-failed outcome) is settled, and
    resolves with the winner's answer/error exactly once.  Attempt
    outcomes are observed through done-callbacks on the underlying batch
    futures, so accounting is driven by the scheduler's own completion
    path — nothing is polled.
    """

    __slots__ = ("_primary", "_hedge", "_winner", "_n_failed", "_callbacks", "_stats")

    def __init__(self, request, primary, hedge, stats: HedgeStats) -> None:
        self.request = request
        self._primary = primary
        self._hedge = hedge
        self._winner = None
        self._n_failed = 0
        self._callbacks: Optional[list] = None
        self._stats = stats
        # Registration order is irrelevant: _attempt_done is re-entrant-safe
        # for already-resolved attempts (a hedge rejected at admission fires
        # immediately, inside this constructor).
        primary.add_done_callback(self._attempt_done)
        hedge.add_done_callback(self._attempt_done)

    # -- attempt bookkeeping --------------------------------------------- #
    def _attempt_done(self, attempt) -> None:
        error = attempt.exception()
        stats = self._stats
        if self._winner is not None:
            # The pair already settled: this is the loser resolving late.
            if error is None:
                stats.losers_served += 1  # wasted compute, not a second answer
            elif isinstance(error, RequestCancelledError):
                stats.losers_cancelled += 1
            else:
                stats.losers_failed += 1
            return
        if error is None:
            self._winner = attempt
            if attempt is self._hedge:
                stats.hedge_wins += 1
            else:
                stats.primary_wins += 1
            loser = self._primary if attempt is self._hedge else self._hedge
            if loser.done():
                # The loser failed *before* the pair settled (its callback
                # ran with no winner yet and only bumped _n_failed) —
                # classify it here so the loser ledger still partitions.
                loser_error = loser.exception()
                if isinstance(loser_error, RequestCancelledError):
                    stats.losers_cancelled += 1
                else:
                    stats.losers_failed += 1
            else:
                loser.cancel()
            self._fire_callbacks()
            return
        self._n_failed += 1
        if self._n_failed >= 2:
            # Both attempts failed: settle on the primary's error (the
            # hedge's failure is secondary — it was our speculation).
            self._winner = self._primary
            stats.pairs_failed += 1
            self._fire_callbacks()

    def _fire_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    # -- PendingResult interface ------------------------------------------ #
    def done(self) -> bool:
        return self._winner is not None

    def add_done_callback(self, callback) -> None:
        if self._winner is not None:
            callback(self)
            return
        if self._callbacks is None:
            self._callbacks = []
        self._callbacks.append(callback)

    def _settle(self) -> None:
        if self._winner is None and not self._primary.done():
            # exception() drains the owning scheduler; both attempts share
            # it, so one drain resolves the pair.
            self._primary.exception()
        if self._winner is None and not self._hedge.done():
            self._hedge.exception()
        if self._winner is None:
            raise ServingError(
                "hedged request is still pending; drain() the serving client"
            )

    def exception(self) -> Optional[BaseException]:
        self._settle()
        return self._winner.exception()

    def result(self):
        self._settle()
        return self._winner.result()


class ControlPlane:
    """Hedges a serving client's at-risk requests.

    Installs itself on a :class:`~repro.serving.ServingClient`
    (``client.control``) and runs after every queued wave, before the
    caller sees the futures.  Every at-risk request gets at most one hedge.
    A request is at risk when its projected begin plus
    :data:`SLACK_SECONDS` passes its deadline, or when its lane failed at
    least :data:`UNHEALTHY_FAILURES` requests inside the last
    :data:`WINDOW` submissions (a fail-fast lane under-reports its
    projected begin).  :meth:`stats` is what the server's stats frame
    serves under ``control``.

    Parameters
    ----------
    client:
        The :class:`~repro.serving.ServingClient` to control.  The plane
        installs itself via ``client.attach_control`` — submissions start
        flowing through :meth:`after_submit` immediately.
    """

    def __init__(self, client) -> None:
        scheduler = getattr(client, "scheduler", None)
        if scheduler is None:
            raise ConfigurationError(
                "the control plane attaches to a ServingClient (or any object "
                "exposing .scheduler and .attach_control)"
            )
        self._scheduler = scheduler
        # The scheduler's cumulative per-lane failures, one snapshot per
        # submission; the oldest diffed against now is the recent failures.
        self._failure_marks = deque(maxlen=WINDOW)
        #: Submission waves observed.
        self.ticks = 0
        #: Exactly-once ledger over every pair this plane fired.
        self.hedges = HedgeStats()
        client.attach_control(self)

    def lane_failures(self) -> np.ndarray:
        """Per-lane failed requests inside the last :data:`WINDOW` submissions."""
        failures_now = self._scheduler.lane_failures
        base = self._failure_marks[0] if self._failure_marks else failures_now
        return failures_now - base

    def after_submit(self, requests: Sequence, futures: List) -> List:
        """Hedge one queued wave's at-risk requests; returns the futures the
        caller sees."""
        scheduler = self._scheduler
        self.ticks += 1
        self._failure_marks.append(scheduler.lane_failures)
        if scheduler.n_devices < 2:
            return futures
        unhealthy = self.lane_failures() >= UNHEALTHY_FAILURES
        out = list(futures)
        for index, (request, future) in enumerate(zip(requests, out)):
            deadline = request.deadline_seconds
            if deadline is None:
                continue
            primary = scheduler.lane_of(future)
            if primary is None:
                continue  # rejected at admission, or a foreign future
            arrival = float(request.arrival_seconds)
            projected = scheduler.projected_begin_for(primary, arrival, deadline)
            at_risk = projected + SLACK_SECONDS > deadline or unhealthy[primary]
            if not at_risk:
                continue
            alternate = self._alternate(
                request, primary, scheduler, unhealthy, arrival, deadline
            )
            if alternate is None:
                continue
            hedge_future = self._fire(request, alternate, scheduler)
            out[index] = HedgedResult(request, future, hedge_future, self.hedges)
            self.hedges.fired += 1
        return out

    def stats(self) -> Dict[str, object]:
        """The window, the submissions observed and the hedging ledger."""
        return {"window": WINDOW, "ticks": self.ticks, "hedging": self.hedges.to_dict()}

    # -- internals -------------------------------------------------------- #
    def _alternate(
        self, request, primary, scheduler, unhealthy, arrival, deadline
    ) -> Optional[int]:
        """The lane to hedge onto, or ``None`` when no lane would help."""
        candidates = getattr(scheduler.policy, "candidates", None)
        lanes: List[int]
        if candidates is not None:
            first, second = candidates(
                np.asarray([request.user_id], dtype=np.int64)
            )
            sibling = int(second[0]) if int(first[0]) == primary else int(first[0])
            lanes = (
                [sibling]
                if sibling != primary
                else [l for l in range(scheduler.n_devices) if l != primary]
            )
        else:
            lanes = [l for l in range(scheduler.n_devices) if l != primary]
        best = None
        best_key = None
        for lane in lanes:
            key = (
                bool(unhealthy[lane]),
                scheduler.projected_begin_for(lane, arrival, deadline),
            )
            if best_key is None or key < best_key:
                best, best_key = lane, key
        if best is None:
            return None
        alt_unhealthy, alt_projected = best_key
        if unhealthy[primary] and not alt_unhealthy:
            return best  # escaping a failing lane always helps
        if alt_projected + SLACK_SECONDS <= deadline:
            return best  # the alternate can actually make the deadline
        return None  # equally doomed: don't double the overload

    def _fire(self, request, lane, scheduler):
        """Submit a clone of ``request`` directly onto ``lane``."""
        clone = PredictRequest(
            user_id=request.user_id,
            features=request.features,
            arrival_seconds=request.arrival_seconds,
            deadline_seconds=request.deadline_seconds,
            metadata=request.metadata,
            request_id=request.request_id,
        )
        return scheduler.submit_assigned(
            [clone], np.asarray([lane], dtype=np.int64)
        )[0]
