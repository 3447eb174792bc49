"""The control plane: controllers behind one protocol, hooked into a client.

:class:`ControlPlane` attaches to a :class:`~repro.serving.ServingClient`
and routes two hooks to its controllers:

* ``on_submit(requests, futures, signals)`` — after a wave of requests is
  queued (admission already applied) but *before* the caller sees the
  futures; a controller may replace entries (hedging wraps at-risk futures
  in a first-completion-wins pair) or act on pre-drain signals (the
  autoscaler grows the pool while the queue is visible at its deepest);
* ``on_tick(signals)`` — after each ``drain()``, on post-drain signals
  (the autoscaler shrinks here, from the arrival-rate window rather than
  the now-empty queue).

Controllers follow the library's registry convention (executors, routing
policies, scheduling orders): subclasses of :class:`Controller` with a
``name``, registered in :data:`repro.control.CONTROLLERS`.  The shared
:class:`~repro.control.signals.SignalBus` snapshot is handed to every
controller so decisions within one hook read the same instant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.control.signals import ControlSignals, SignalBus
from repro.exceptions import ConfigurationError

__all__ = ["Controller", "ControlPlane", "default_controllers"]


class Controller:
    """One closed-loop behavior plugged into the control plane.

    The base class is inert: ``on_submit`` passes futures through,
    ``on_tick`` does nothing.  Subclasses override the hooks they need and
    report their decisions through :meth:`stats` (surfaced on the server's
    stats endpoint under ``control.<name>``).
    """

    #: Registry key of the controller.
    name: str = "abstract"

    def bind(self, plane: "ControlPlane") -> None:
        """Called once when the controller joins a plane."""
        self.plane = plane

    def on_submit(
        self, requests: Sequence, futures: List, signals: ControlSignals
    ) -> List:
        """Observe/transform one submitted wave; returns the futures."""
        return futures

    def on_tick(self, signals: ControlSignals) -> None:
        """React to post-drain signals."""

    def stats(self) -> Dict[str, object]:
        """JSON-ready decision telemetry."""
        return {}


class ControlPlane:
    """Observes a serving client's signals and feeds decisions back.

    Parameters
    ----------
    client:
        The :class:`~repro.serving.ServingClient` to control.  The plane
        installs itself via ``client.attach_control`` — submissions and
        drains start flowing through the hooks immediately.
    controllers:
        Controller instances, applied in order on every hook.  ``None``
        builds the default stack via :func:`default_controllers` (load
        shedding, hedging where the fleet has siblings to hedge to, and
        pool autoscaling where the executor is resizable).
    window:
        Signal-bus window, in submissions (see
        :class:`~repro.control.signals.SignalBus`).
    """

    def __init__(
        self, client, controllers: Optional[Sequence[Controller]] = None,
        *, window: int = 8,
    ) -> None:
        scheduler = getattr(client, "scheduler", None)
        if scheduler is None:
            raise ConfigurationError(
                "the control plane attaches to a ServingClient (or any object "
                "exposing .scheduler and .attach_control)"
            )
        self.client = client
        self.scheduler = scheduler
        self.bus = SignalBus(scheduler, window=window)
        if controllers is None:
            controllers = default_controllers(scheduler)
        self.controllers: List[Controller] = []
        for controller in controllers:
            controller.bind(self)
            self.controllers.append(controller)
        client.attach_control(self)

    @property
    def executor(self):
        return self.scheduler.executor

    def controller(self, name: str) -> Optional[Controller]:
        """The attached controller with ``name``, if any."""
        for controller in self.controllers:
            if controller.name == name:
                return controller
        return None

    # -- client hooks --------------------------------------------------- #
    def after_submit(self, requests: Sequence, futures: List) -> List:
        """Run every controller's submit hook over one queued wave."""
        self.bus.observe_submit(len(requests))
        signals = self.bus.snapshot()
        for controller in self.controllers:
            futures = controller.on_submit(requests, futures, signals)
        return futures

    def after_drain(self) -> None:
        """Run every controller's post-drain tick."""
        signals = self.bus.snapshot()
        for controller in self.controllers:
            controller.on_tick(signals)

    # -- telemetry ------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Per-controller decision telemetry plus the bus configuration."""
        data: Dict[str, object] = {
            "window": self.bus.window,
            "ticks": self.bus.tick,
            "controllers": [c.name for c in self.controllers],
        }
        for controller in self.controllers:
            data[controller.name] = controller.stats()
        return data


def default_controllers(scheduler) -> List[Controller]:
    """The standard stack for a scheduler: shed, hedge, autoscale.

    Hedging needs a sibling lane to hedge to (skipped on single-lane
    fleets); autoscaling needs a resizable executor (the duck-typed
    ``resize`` seam — skipped for inline executors).
    """
    from repro.control.autoscaler import PoolAutoscaler
    from repro.control.hedging import HedgedRequests
    from repro.control.shedding import LoadShedder

    controllers: List[Controller] = [LoadShedder()]
    if scheduler.n_devices >= 2:
        controllers.append(HedgedRequests())
    if callable(getattr(scheduler.executor, "resize", None)):
        controllers.append(PoolAutoscaler())
    return controllers
