"""Pool autoscaler: queue depth and rolling attainment drive ``resize()``.

Scale-up happens on the *submit* hook, when the freshly queued wave makes
the backlog visible at its deepest — the resize lands before the drain, so
the very round that saw the spike already runs on the larger pool.
Scale-down happens on the *post-drain* tick and reads the arrival-rate
window, not the queue (which an open-loop per-tick drain empties every
round; a gauge that is always zero after drain would otherwise argue for
shrinking a pool that is saturated mid-round).

No-flapping is enforced twice over: hysteresis (the shrink threshold is
computed against the *shrunken* pool, so a size the next wave would
immediately regrow never passes) and a cooldown of ``cooldown_ticks``
submissions after any change.
"""

from __future__ import annotations

from typing import Dict, List

from repro.control.plane import Controller
from repro.control.signals import ControlSignals
from repro.exceptions import ConfigurationError

__all__ = ["PoolAutoscaler"]

#: The pool never shrinks below one worker; it grows up to the lane count
#: (the executor's own cap).
MIN_WORKERS = 1

#: Rolling deadline attainment below which a moderately deep queue already
#: justifies scaling up, and below which scale-down is vetoed.
ATTAINMENT_FLOOR = 0.9


class PoolAutoscaler(Controller):
    """Grows/shrinks a resizable executor pool between drains.

    The pool stays between :data:`MIN_WORKERS` and the lane count.

    Parameters
    ----------
    high_queue_per_worker:
        Scale up when the queued backlog exceeds this many requests per
        current worker.
    low_queue_per_worker:
        Scale down when the arrival-rate window would stay below this many
        requests per worker *after* shrinking (hysteresis: the test is
        against the smaller pool).
    cooldown_ticks:
        Minimum submissions between consecutive resizes.
    """

    name = "autoscaler"

    def __init__(
        self,
        *,
        high_queue_per_worker: float = 32.0,
        low_queue_per_worker: float = 8.0,
        cooldown_ticks: int = 2,
    ) -> None:
        if not 0.0 < low_queue_per_worker < high_queue_per_worker:
            raise ConfigurationError(
                "watermarks must satisfy 0 < low < high, got "
                f"low={low_queue_per_worker}, high={high_queue_per_worker}"
            )
        if cooldown_ticks < 0:
            raise ConfigurationError(
                f"cooldown_ticks must be >= 0, got {cooldown_ticks}"
            )
        self.high_queue_per_worker = float(high_queue_per_worker)
        self.low_queue_per_worker = float(low_queue_per_worker)
        self.cooldown_ticks = int(cooldown_ticks)
        #: Resize history: ``{"tick", "from", "to", "reason"}`` per action.
        self.actions: List[Dict[str, object]] = []
        self._last_change_tick = -(10**9)
        self._resize = None

    def bind(self, plane) -> None:
        super().bind(plane)
        self._resize = getattr(plane.executor, "resize", None)

    # -- hooks ----------------------------------------------------------- #
    def on_submit(self, requests, futures, signals: ControlSignals):
        self._maybe_grow(signals)
        return futures

    def on_tick(self, signals: ControlSignals) -> None:
        self._maybe_shrink(signals)

    # -- decisions ------------------------------------------------------- #
    def _cooling(self, signals: ControlSignals) -> bool:
        return (
            self._resize is None
            or signals.workers is None
            or signals.tick - self._last_change_tick < self.cooldown_ticks
        )

    def _apply(self, signals: ControlSignals, desired: int, reason: str) -> None:
        actual = self._resize(desired)
        if actual != signals.workers:
            self.actions.append(
                {
                    "tick": signals.tick,
                    "from": int(signals.workers),
                    "to": int(actual),
                    "reason": reason,
                }
            )
            self._last_change_tick = signals.tick

    def _maybe_grow(self, signals: ControlSignals) -> None:
        if self._cooling(signals):
            return
        workers = signals.workers
        cap = signals.n_lanes
        if workers >= cap:
            return
        depth = signals.queue_depth
        pressured = depth > self.high_queue_per_worker * workers
        struggling = (
            signals.rolling_attainment < ATTAINMENT_FLOOR
            and depth > self.low_queue_per_worker * workers
        )
        if not (pressured or struggling):
            return
        # Double under pressure (catches a step overload in O(log) resizes)
        # but never past the cap.
        desired = min(max(workers + 1, workers * 2), cap)
        why = (
            f"queue {depth} > {self.high_queue_per_worker:g}/worker"
            if pressured
            else f"attainment {signals.rolling_attainment:.3f} < "
            f"{ATTAINMENT_FLOOR:g} with queue {depth}"
        )
        self._apply(signals, desired, why)

    def _maybe_shrink(self, signals: ControlSignals) -> None:
        if self._cooling(signals):
            return
        workers = signals.workers
        if workers <= MIN_WORKERS:
            return
        if signals.rolling_attainment < ATTAINMENT_FLOOR:
            return  # never shrink a pool that is missing deadlines
        shrunken = workers - 1
        if signals.arrival_rate >= self.low_queue_per_worker * shrunken:
            return  # the smaller pool would sit above its low watermark
        self._apply(
            signals,
            shrunken,
            f"arrival rate {signals.arrival_rate:.1f}/tick < "
            f"{self.low_queue_per_worker:g} x {shrunken} workers",
        )

    # -- telemetry ------------------------------------------------------- #
    def stats(self) -> Dict[str, object]:
        ups = sum(1 for a in self.actions if a["to"] > a["from"])  # type: ignore[operator]
        return {
            "actions": len(self.actions),
            "scale_ups": ups,
            "scale_downs": len(self.actions) - ups,
            "last": self.actions[-1] if self.actions else None,
        }
