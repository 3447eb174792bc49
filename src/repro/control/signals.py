"""Windowed per-lane failures: the one signal the hedger reads.

The scheduler exports cumulative per-lane failure counters
(``EventLoopScheduler.lane_failures``, which survive device replacement).
A dying worker fails fast and looks idle, so what marks its lane is how
many requests it failed *recently*.  :class:`SignalBus` keeps one
snapshot of those counters per submission over the last :data:`WINDOW`
submissions and diffs the oldest against now.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["SignalBus", "WINDOW"]

#: Submissions the recent-failure signal covers.
WINDOW = 8


class SignalBus:
    """Turns the scheduler's all-time lane failures into recent ones."""

    def __init__(self, scheduler) -> None:
        self._scheduler = scheduler
        # Cumulative per-lane failure snapshots, one per tick; diffing the
        # oldest against "now" yields failures inside the window.
        self._failure_marks = deque(maxlen=WINDOW)
        self._tick = 0

    @property
    def tick(self) -> int:
        return self._tick

    def observe_submit(self) -> None:
        """Advance the bus by one submission wave."""
        self._tick += 1
        self._failure_marks.append(self._scheduler.lane_failures)

    def lane_failures(self) -> np.ndarray:
        """Per-lane failed requests inside the window."""
        failures_now = self._scheduler.lane_failures
        base = self._failure_marks[0] if self._failure_marks else failures_now
        return failures_now - base
