"""Rolling-window signal bus shared by every controller.

The control plane observes, it does not instrument: every quantity here is
read from surfaces the scheduler/stats layer already exports — the live
per-lane queue gauges (``EventLoopScheduler.queue_depths``), the rolling
deadline-attainment window kept on the ``DeviceStats`` rows (the same one
``RoutingReport.to_dict()`` serves to the network stats endpoint), the
cumulative per-lane failure counters, and the shed/request totals.  The
bus adds exactly two things on top: a short arrival-rate window (mean
submitted requests over the last ``window`` submissions) and
cumulative-counter *diffing* that turns the all-time per-lane failure
counts into a "failures in the recent window" signal.

One :class:`ControlSignals` snapshot per hook invocation keeps every
controller reading the same instant — an autoscaler and a shedder never
disagree about what the queue looked like when they decided.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["ControlSignals", "SignalBus"]


@dataclass(frozen=True)
class ControlSignals:
    """One immutable reading of the serving stack's control inputs."""

    #: Monotone submission counter (one tick per ``observe_submit``).
    tick: int
    #: Scheduler clock at snapshot time (latest lane completion).
    now: float
    #: Lane count (fixed for a scheduler's lifetime).
    n_lanes: int
    #: Current executor pool size; ``None`` for inline executors.
    workers: Optional[int]
    #: Per-lane queued request counts (live gauge).
    queue_depths: np.ndarray = field(repr=False)
    #: Sum of :attr:`queue_depths`.
    queue_depth: int = 0
    #: Mean submitted requests per tick over the bus window.
    arrival_rate: float = 0.0
    #: Fleet rolling deadline attainment (``ROLLING_WINDOW`` outcomes/lane).
    rolling_attainment: float = 1.0
    #: Per-lane failed requests inside the bus window (counter diffs).
    lane_failures: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    #: All-time shed / served-request totals, for controller telemetry.
    total_shed: int = 0
    total_requests: int = 0


class SignalBus:
    """Windows the scheduler's cumulative exports into control signals.

    ``window`` is the number of recent *submissions* the arrival-rate and
    recent-failure signals cover; the rolling attainment window is the
    stats layer's own (:data:`repro.serving.report.ROLLING_WINDOW` outcomes
    per lane) so the bus, the stats endpoint and benchmark artifacts all
    quote one number.
    """

    def __init__(self, scheduler, *, window: int = 8) -> None:
        if window <= 0:
            raise ConfigurationError(f"signal window must be positive, got {window}")
        self._scheduler = scheduler
        self.window = int(window)
        self._arrivals = deque(maxlen=self.window)
        # Cumulative per-lane failure snapshots, one per tick; diffing the
        # oldest against "now" yields failures inside the window.
        self._failure_marks = deque(maxlen=self.window)
        self._tick = 0

    @property
    def tick(self) -> int:
        return self._tick

    def observe_submit(self, n_requests: int) -> None:
        """Advance the bus by one submission wave of ``n_requests``."""
        self._tick += 1
        self._arrivals.append(int(n_requests))
        self._failure_marks.append(self._scheduler.lane_failures)

    def snapshot(self) -> ControlSignals:
        """Read every signal at one instant."""
        scheduler = self._scheduler
        failures_now = scheduler.lane_failures
        base = self._failure_marks[0] if self._failure_marks else failures_now
        depths = scheduler.queue_depths
        report = scheduler.report()
        workers = getattr(scheduler.executor, "n_workers", 0)
        return ControlSignals(
            tick=self._tick,
            now=scheduler.clock_now(),
            n_lanes=scheduler.n_devices,
            workers=int(workers) if workers else None,
            queue_depths=depths,
            queue_depth=int(depths.sum()),
            arrival_rate=(
                sum(self._arrivals) / len(self._arrivals) if self._arrivals else 0.0
            ),
            rolling_attainment=report.rolling_deadline_attainment,
            lane_failures=failures_now - base,
            total_shed=report.total_shed,
            total_requests=report.total_requests,
        )
