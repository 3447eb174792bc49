"""Unified serving API: one request/response protocol for every layer.

PILOTE is ultimately a *serving* story — incremental HAR models answering
user traffic on extreme-edge hardware — and this package is its single
front door:

* **protocol** (:mod:`repro.serving.protocol`) — typed
  :class:`PredictRequest` / :class:`PredictResponse` with per-request
  deadlines and metadata, :class:`PendingResult` futures completed on the
  simulated clock, and :class:`~repro.exceptions.ServingError` failures;
* **client** (:mod:`repro.serving.client`) — :func:`serve` builds a
  :class:`ServingClient` from a bare ``PILOTE`` learner, a
  ``MagnetoPlatform`` or a whole ``FleetCoordinator`` (the three layers
  ``pilote serve`` compares); every layer answers the same API;
* **scheduler** (:mod:`repro.serving.scheduler`) — an event-loop
  :class:`EventLoopScheduler` over the fleet's simulated ``DeviceStats``
  clock, with a pluggable queue order (:data:`SCHEDULING_ORDERS`): ``"fifo"`` arrival
  order or ``"edf"`` earliest-deadline-first, plus deadline admission
  control and per-device SLO accounting
  (``DeviceStats.deadline_misses``, ``RoutingReport.slo_attainment``);
* **report** (:mod:`repro.serving.report`) — the per-device
  :class:`DeviceStats` rows and the fleet-level :class:`RoutingReport` the
  scheduler produces, with ``to_dict``/``from_dict`` round-trips;
* **executor** (:mod:`repro.serving.executor`) — pluggable batch execution
  behind the scheduler (:data:`EXECUTORS`): :class:`SerialExecutor`
  (inline on the simulated clock, the default; only its drain embeds the
  batches of lanes that share weights in one call),
  :class:`ThreadExecutor` (shared-memory pool for I/O-shaped lanes) and
  :class:`ProcessExecutor` (persistent worker OS processes, one per lane
  group, each rebuilding its lanes' learners from the shipped
  :func:`~repro.core.persistence.pilote_state` state, re-shipped when
  ``PILOTE.state_version`` moves; futures complete from an IPC result queue, and
  a dead worker fails its batches with a typed
  :class:`~repro.exceptions.WorkerDiedError` before being respawned).
  Concurrent executors report *measured* wall-clock latency
  (``DeviceStats.clock == "wall"``) instead of the modeled simulated
  clock;
* **routing** (:mod:`repro.serving.routing`) — pluggable
  :class:`RoutingPolicy` implementations (seeded ``"hash"``,
  ``"least-loaded"``, power-of-two-choices ``"p2c"``), selectable per
  client and from the CLI.

``benchmarks/bench_serving.py`` gates the scheduler's per-request overhead
against a bare ``InferenceEngine.predict`` loop and the p99 latency win of ``least-loaded`` over
``hash`` under Zipf-skewed traffic; ``benchmarks/bench_deadlines.py`` gates
that EDF answers strictly more requests within deadline than FIFO on an
overloaded Zipf workload at no extra per-request overhead;
``benchmarks/bench_workers.py`` gates the serial executor's bit-exactness
with direct per-device engine calls and the process executor's real wall-clock speedup on
multi-core hardware.
"""

from repro.exceptions import (
    ClientClosedError,
    DeadlineExceededError,
    ExecutorError,
    InvalidRequestError,
    RequestCancelledError,
    RoutingError,
    ServingError,
    WireProtocolError,
    WorkerDiedError,
)
from repro.serving.executor import (
    EXECUTORS,
    Executor,
    LaneResult,
    LaneTask,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.serving.client import (
    IN_PROCESS_PROFILE,
    LocalServingDevice,
    ServingClient,
    serve,
)
from repro.serving.report import ROLLING_WINDOW, DeviceStats, RoutingReport
from repro.serving.protocol import (
    PendingResult,
    Prediction,
    PredictRequest,
    PredictResponse,
)
from repro.serving.routing import (
    HashRouting,
    LeastLoadedRouting,
    PowerOfTwoRouting,
    ROUTING_POLICIES,
    RoutingPolicy,
    make_routing_policy,
)
from repro.serving.scheduler import SCHEDULING_ORDERS, EventLoopScheduler

__all__ = [
    "serve",
    "ServingClient",
    "SCHEDULING_ORDERS",
    "EXECUTORS",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "LaneTask",
    "LaneResult",
    "make_executor",
    "PredictRequest",
    "PredictResponse",
    "Prediction",
    "PendingResult",
    "EventLoopScheduler",
    "DeviceStats",
    "RoutingReport",
    "ROLLING_WINDOW",
    "RoutingPolicy",
    "HashRouting",
    "LeastLoadedRouting",
    "PowerOfTwoRouting",
    "ROUTING_POLICIES",
    "make_routing_policy",
    "LocalServingDevice",
    "IN_PROCESS_PROFILE",
    "ServingError",
    "InvalidRequestError",
    "DeadlineExceededError",
    "RoutingError",
    "ExecutorError",
    "WorkerDiedError",
    "ClientClosedError",
    "WireProtocolError",
    "RequestCancelledError",
]
