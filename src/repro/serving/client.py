"""`ServingClient` — one serving facade for every layer of the system.

``serve(obj)`` builds a client from whatever can answer predictions:

* a bare :class:`~repro.core.pilote.PILOTE` learner — served in process
  through its :class:`~repro.edge.inference.InferenceEngine`;
* a :class:`~repro.edge.magneto.MagnetoPlatform` — the paper's one-device
  pipeline, served by its edge device
  (:meth:`~repro.edge.device.FleetDevice.serve`) at the device profile's
  dtype, through whichever learner is deployed when a request runs;
* a :class:`~repro.fleet.FleetCoordinator` — an N-device fleet with
  pluggable routing.

Every layer answers the *same* protocol (:class:`~repro.serving.protocol
.PredictRequest` in, :class:`~repro.serving.protocol.PendingResult` /
:class:`~repro.serving.protocol.PredictResponse` out), so code written
against the client is indifferent to whether one learner or eight devices sit
behind it::

    from repro.serving import serve, PredictRequest

    client = serve(fleet, routing="least-loaded", seed=0)
    pending = client.submit(PredictRequest(user_id=7, features=windows))
    client.drain()                      # run the event loop
    response = pending.result()         # class ids + latency + device id

    class_ids = serve(learner).predict(windows)   # one-liner, same types

:meth:`ServingClient.predict` sends one deadline-less request as user 0;
a request with a user, an arrival time or a deadline is a
:class:`~repro.serving.protocol.PredictRequest` passed to
:meth:`ServingClient.submit`.

Behind a coordinator the client routes only over deployed devices, so a
partially deployed fleet serves from the devices that hold a learner.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.edge.device import DeviceProfile
from repro.edge.magneto import MagnetoPlatform
from repro.exceptions import ClientClosedError, RoutingError, ServingError
from repro.fleet.coordinator import FleetCoordinator
from repro.serving.report import RoutingReport
from repro.serving.executor import Executor
from repro.serving.protocol import PendingResult, PredictRequest
from repro.serving.routing import HashRouting, RoutingPolicy
from repro.serving.scheduler import EventLoopScheduler
from repro.utils.rng import RandomState

__all__ = ["ServingClient", "serve", "LocalServingDevice", "IN_PROCESS_PROFILE"]

#: Profile of the in-process pseudo-device wrapping a bare learner.
IN_PROCESS_PROFILE = DeviceProfile(
    "in-process",
    storage_bytes=2**30,
    memory_bytes=2**30,
    relative_compute=1.0,
)


class LocalServingDevice:
    """Adapts any ``infer(windows) -> class_ids`` callable to the device API.

    Gives bare learners the interface the event-loop scheduler expects from
    a fleet device: ``infer``, ``device_id`` and ``profile``.  ``engine``
    optionally names the :class:`~repro.edge.inference.InferenceEngine`
    behind the callable so the multi-process executor can ship its
    learner's state for remote serving (``serve(...)`` wires it
    automatically); ``serving_dtype`` stays ``None`` because in-process
    adapters serve under the ambient dtype policy rather than a device
    profile's pinned dtype.
    """

    serving_dtype = None

    def __init__(
        self,
        infer,
        *,
        profile: DeviceProfile = IN_PROCESS_PROFILE,
        device_id: int = 0,
        engine=None,
    ) -> None:
        self._infer = infer
        self.profile = profile
        self.device_id = int(device_id)
        self.engine = engine

    def infer(self, windows: np.ndarray) -> np.ndarray:
        return self._infer(windows)


class ServingClient:
    """Futures-based serving client over an event-loop scheduler.

    Parameters
    ----------
    devices:
        Device-like targets (``FleetCoordinator.serving_lanes()`` passes
        its live list, so device replacement reaches in-flight requests).
    routing:
        Policy name (``"hash"``, ``"least-loaded"``, ``"p2c"``), a
        :class:`~repro.serving.routing.RoutingPolicy` instance, or ``None``
        for the seeded-hash default.
    seed:
        Seeds the routing policy; same seed, same placement.
    scheduling:
        Queue order of the event-loop scheduler: ``"fifo"`` (arrival order,
        the default) or ``"edf"`` (earliest-deadline-first — requests with
        the tightest deadlines are served first; see
        :mod:`repro.serving.scheduler` for the full deadline semantics).
    executor:
        Where batches execute — ``"serial"`` (inline on the simulated
        clock, the default), ``"thread"`` or ``"process"`` (real
        multi-process workers; see :mod:`repro.serving.executor`), or an
        :class:`~repro.serving.executor.Executor` instance.  ``workers``
        sizes the concurrent pools.  Call :meth:`close` (or use the client
        as a context manager) to release worker pools.
    coordinator:
        The owning :class:`~repro.fleet.FleetCoordinator`, when there is one;
        routing then skips devices that have no learner deployed yet.
    """

    def __init__(
        self,
        devices: Sequence,
        *,
        routing: Union[str, RoutingPolicy, None] = None,
        seed: RandomState = None,
        scheduling: str = "fifo",
        executor: Union[str, Executor, None] = None,
        workers: Optional[int] = None,
        coordinator: Optional[FleetCoordinator] = None,
        label: str = "fleet",
    ) -> None:
        self._scheduler = EventLoopScheduler(
            devices, routing, seed=seed, scheduling=scheduling,
            executor=executor, workers=workers,
        )
        self._coordinator = coordinator
        self._closed = False
        self.label = label
        #: Attached :class:`~repro.control.ControlPlane`, if any.
        self.control = None

    # ------------------------------------------------------------------ #
    @property
    def routing(self) -> str:
        """Name of the active routing policy."""
        return self._scheduler.policy.name

    @property
    def scheduling(self) -> str:
        """Active queue order (``"fifo"`` or ``"edf"``)."""
        return self._scheduler.scheduling

    @property
    def executor(self) -> str:
        """Name of the active executor (``serial``/``thread``/``process``)."""
        return self._scheduler.executor.name

    def close(self) -> None:
        """Close the client: fail still-pending futures typed, release pools.

        Idempotent.  Any request submitted but not yet drained completes
        with :class:`~repro.exceptions.ClientClosedError` (counted in
        ``RoutingReport.total_failed``) rather than being dropped, and
        further :meth:`submit`/:meth:`submit_many` calls raise the same
        typed error instead of failing obscurely inside a released
        executor.  :meth:`report` keeps working after close.
        """
        if self._closed:
            return
        self._closed = True
        self._scheduler.fail_pending(
            ClientClosedError(
                "serving client closed with requests still pending; their "
                "futures were failed with this error instead of being dropped"
            )
        )
        self._scheduler.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def scheduler(self) -> EventLoopScheduler:
        return self._scheduler

    @property
    def n_devices(self) -> int:
        return self._scheduler.n_devices

    @property
    def pending_requests(self) -> int:
        return self._scheduler.pending_requests

    # ------------------------------------------------------------------ #
    def submit(self, request) -> PendingResult:
        """Queue one request; returns a future completed by :meth:`drain`."""
        return self.submit_many([request])[0]

    def submit_many(self, requests: Sequence) -> List[PendingResult]:
        """Queue many requests at once (vectorised routing), one future each.

        Routing only considers *deployed* devices, so a partially deployed
        fleet (devices provisioned after the last
        :meth:`~repro.fleet.FleetCoordinator.deploy`) keeps serving from the
        devices that hold a learner.
        """
        if self._closed:
            raise ClientClosedError(
                "cannot submit to a closed serving client; build a new one "
                "with repro.serving.serve(...)"
            )
        lanes = self._deployed_lanes()
        if lanes is None:
            futures = self._scheduler.submit_many(requests)
        elif not requests:
            futures = []
        else:
            user_ids = np.fromiter(
                (r.user_id for r in requests), dtype=np.int64, count=len(requests)
            )
            assignment = self._scheduler.policy.assign_batch(
                requests, user_ids, self._scheduler, lanes=lanes
            )
            futures = self._scheduler.submit_assigned(requests, assignment)
        # Every submit path funnels through the control plane (when one is
        # attached): it sees the queued wave and may replace entries with
        # hedged pairs.
        if self.control is not None and requests:
            futures = self.control.after_submit(requests, futures)
        return futures

    def drain(self) -> int:
        """Run the event loop until every pending request is answered."""
        return self._scheduler.drain()

    # ------------------------------------------------------------------ #
    def attach_control(self, plane) -> None:
        """Install a :class:`~repro.control.ControlPlane` on this client.

        Called by the plane's constructor; afterwards every
        :meth:`submit_many` wave flows through the plane's
        ``after_submit``.  Detach by setting :attr:`control` back to
        ``None``.
        """
        self.control = plane

    def control_stats(self) -> Optional[dict]:
        """The attached control plane's telemetry, or ``None``."""
        return self.control.stats() if self.control is not None else None

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Synchronous convenience: submit one deadline-less request as
        user 0, drain, return ids."""
        pending = self.submit(PredictRequest(user_id=0, features=features))
        self.drain()
        return pending.result().class_ids

    def clock_now(self) -> float:
        """Current reading of the scheduler clock (stamps live arrivals)."""
        return self._scheduler.clock_now()

    def report(self) -> RoutingReport:
        """Per-device serving statistics on the simulated clock."""
        return self._scheduler.report()

    def sync_stats(self) -> Optional[dict]:
        """The executor's learner-state shipping counters, when it keeps any.

        ``{"bytes_shipped", "full_syncs"}`` for the process executor,
        ``None`` for executors that ship nothing; feeds the report's JSON
        export (``RoutingReport.to_dict(sync_stats=...)``).
        """
        executor = self._scheduler.executor
        stats = getattr(executor, "sync_stats", None)
        return dict(stats()) if callable(stats) else None

    def replace_device(self, device_id: int, replacement) -> None:
        """Swap a device; queued requests are served by the replacement."""
        self._scheduler.replace_device(device_id, replacement)

    # ------------------------------------------------------------------ #
    def _deployed_lanes(self) -> Optional[np.ndarray]:
        """Lane subset with a deployed device, or ``None`` when all are.

        Only meaningful behind a coordinator (fleet devices know whether
        they carry a learner yet); local adapters are always servable.
        """
        if self._coordinator is None:
            return None
        devices = self._scheduler.devices
        lanes = [
            position
            for position, device in enumerate(devices)
            if getattr(device, "is_deployed", True)
        ]
        if len(lanes) == len(devices):
            return None
        if not lanes:
            raise RoutingError("no deployed devices in the fleet; deploy() first")
        return np.asarray(lanes, dtype=np.int64)


# ---------------------------------------------------------------------- #
def serve(
    target,
    *,
    routing: Union[str, RoutingPolicy, None] = None,
    seed: RandomState = None,
    scheduling: str = "fifo",
    executor: Union[str, Executor, None] = None,
    workers: Optional[int] = None,
    adaptive: bool = False,
) -> ServingClient:
    """Build a :class:`ServingClient` from any serving-capable object.

    Accepts a :class:`~repro.core.pilote.PILOTE` learner, a
    :class:`~repro.edge.magneto.MagnetoPlatform` or a
    :class:`~repro.fleet.FleetCoordinator` — every layer answers the same
    request/response protocol afterwards.  ``scheduling`` picks the queue
    order (``"fifo"`` arrival order or ``"edf"`` earliest-deadline-first);
    ``executor`` picks where batches run (``"serial"`` inline on the
    simulated clock, ``"thread"``, or ``"process"`` for real multi-process
    workers sized by ``workers``).  ``adaptive=True`` attaches a
    :class:`~repro.control.ControlPlane` to the built client: hedged
    requests where the fleet has sibling lanes.  The pool keeps the size
    the caller asked for.
    """
    from repro.core.pilote import PILOTE  # deferred: core must not import serving

    options = dict(
        routing=routing, seed=seed, scheduling=scheduling,
        executor=executor, workers=workers,
    )
    client = _build_client(target, options, PILOTE)
    if adaptive:
        from repro.control import ControlPlane  # deferred: control imports serving

        ControlPlane(client)
    return client


def _build_client(target, options: dict, PILOTE) -> ServingClient:
    if isinstance(target, FleetCoordinator):
        if not target.regions:
            raise ServingError("the fleet has no devices; provision() first")
        if options["routing"] in (None, "hash"):
            # Hash users over devices, then fold through the device → lane
            # map so pooled devices share their region's lane.
            options["routing"] = HashRouting(target.lane_map())
        return ServingClient(
            target.serving_lanes(),
            coordinator=target,
            label="fleet",
            **options,
        )
    if isinstance(target, MagnetoPlatform):
        # A platform serves through its one edge device; deployment gives
        # that same object its engine, so a client built before it answers
        # after it.
        return ServingClient([target.device], label="platform", **options)
    if isinstance(target, PILOTE):
        engine = target.inference_engine()
        device = LocalServingDevice(engine.predict, engine=engine)
        return ServingClient([device], label="learner", **options)
    raise ServingError(
        f"don't know how to serve {type(target).__name__}; expected a PILOTE "
        "learner, MagnetoPlatform or FleetCoordinator"
    )
