"""The library's single wall-clock seam.

Most of the system runs on *simulated* clocks — the scheduler's per-lane
``available_at`` timeline, the fleet's modeled device-seconds — and the
static linter (:mod:`repro.analysis`, rule ``repro-clock``) bans direct
``time.time``/``time.monotonic``/``time.perf_counter`` calls from those
modules so a wall-clock read can never silently leak into a simulated
quantity.  Code that *legitimately* measures elapsed wall time (executor
service timing, the concurrent drain's measured clock, profilers, training
epoch timing) goes through this module instead: one whitelisted seam,
greppable, and patchable in tests that need a deterministic clock.

``perf_seconds`` is the only primitive.
"""

from __future__ import annotations

import time as _time

__all__ = ["perf_seconds"]


def perf_seconds() -> float:
    """A monotonic high-resolution reading in seconds (``perf_counter``).

    Only differences are meaningful; the epoch is arbitrary.  This is the
    one sanctioned wall-clock read — simulated-clock modules import this
    instead of :mod:`time` so the ``repro-clock`` lint rule has a single
    whitelist.
    """
    return _time.perf_counter()
