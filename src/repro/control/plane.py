"""The control plane: the object a serving client attaches.

:class:`ControlPlane` installs itself on a
:class:`~repro.serving.ServingClient` (``client.control``) and runs after
every queued wave, before the caller sees the futures: it advances its
:class:`~repro.control.signals.SignalBus` and lets its
:class:`~repro.control.hedging.HedgedRequests` wrap at-risk futures in
first-completion-wins pairs.  Its :meth:`~ControlPlane.stats` are what the
server's stats frame serves under ``control``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.control.hedging import HedgedRequests
from repro.control.signals import WINDOW, SignalBus
from repro.exceptions import ConfigurationError

__all__ = ["ControlPlane"]


class ControlPlane:
    """Hedges a serving client's at-risk requests.

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
        self.bus = SignalBus(scheduler)
        self.hedging = HedgedRequests(scheduler)
        client.attach_control(self)

    def after_submit(self, requests: Sequence, futures: List) -> List:
        """Hedge one queued wave; returns the futures the caller sees."""
        self.bus.observe_submit()
        return self.hedging.on_submit(requests, futures, self.bus.lane_failures())

    def stats(self) -> Dict[str, object]:
        """Hedging telemetry plus the bus configuration."""
        return {
            "window": WINDOW,
            "ticks": self.bus.tick,
            "hedging": self.hedging.hedges.to_dict(),
        }
