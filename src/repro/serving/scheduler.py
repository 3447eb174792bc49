"""Event-loop request scheduler over the simulated ``DeviceStats`` clock.

Requests are *submitted* (each immediately receives a
:class:`~repro.serving.protocol.PendingResult` future) and a heap-ordered
event loop later drains the per-device queues in simulated-clock order.

Timing is computed, not measured: a batch of ``rows`` windows takes
:func:`service_seconds` on the simulated clock — a fixed per-call cost plus
the served network's per-row FLOPs, scaled by the profile's
``relative_compute`` — and devices drain *in parallel* in simulated time, so
a seed fully determines every latency, deadline verdict and report.  The
engine call's measured wall time is still recorded (``wall_seconds``) as an
observation, but nothing on the simulated clock reads it.  The scheduler
keeps one :class:`~repro.serving.report.DeviceStats` row per lane,
summarised in a :class:`~repro.serving.report.RoutingReport`, and records
per-request latencies so reports can answer percentile (p99) questions.

Queue order is a pluggable seam (``scheduling=``, one of
:data:`SCHEDULING_ORDERS`):

* ``"fifo"`` (default) — each lane serves its batches in arrival order;
* ``"edf"`` — earliest-deadline-first: each lane serves the queued batch
  with the earliest deadline among those that have already arrived
  (deadline-less batches sort last and fall back to arrival order among
  themselves).  Under overload EDF answers strictly more requests within
  their deadlines than FIFO, which expires late-queued urgent requests
  behind relaxed ones (``benchmarks/bench_deadlines.py`` gates this).

Deadline semantics, end to end:

* a request whose deadline has already passed at *submit* time (the lane
  cannot possibly start serving it in time) is **rejected** by admission
  control: its future completes immediately with
  :class:`~repro.exceptions.DeadlineExceededError` and it never occupies
  queue space (counted in ``RoutingReport.total_rejected``, included in
  ``total_expired``);
* a queued request whose deadline passes before service *begins* is
  **expired** with the same error at drain time (``total_expired``);
* a request whose service began in time but *completed* late is still
  answered, with ``PredictResponse.deadline_missed`` set and the per-device
  ``DeviceStats.deadline_misses`` counter incremented;
* everything else is **served** within its deadline.
  ``RoutingReport.deadline_attainment`` / ``slo_attainment`` aggregate the
  breakdown.

Design notes for the hot path (the per-request overhead is gated against a
bare ``InferenceEngine.predict`` loop in ``benchmarks/bench_serving.py`` and
``benchmarks/bench_deadlines.py``):

* assignment is vectorised per submitted batch (one hash over all user ids
  for the default policy), and requests are grouped into per-lane batches
  with numpy, not per-request branching;
* requests sharing a device and an arrival time coalesce into one queue
  entry served by a single engine call — one batch per lane per tick when
  the caller drains tick by tick (under EDF, co-arriving requests additionally
  split by deadline so the queue order can discriminate; discrete deadline
  classes — see ``WorkloadSpec.deadline_multipliers`` — keep that split
  coarse and the engine batches large);
* completion state lives on the *batch*: futures are three-slot views
  ``(request, batch, index)``, so finishing a batch is O(1) in the number
  of requests, and per-request class-id slices materialise lazily on
  ``result()``;
* lanes that share weights share one embedding and one NCM call (below).

Fused serving (serial executor, FIFO lanes).  Fleet devices deployed from
one :class:`~repro.edge.transfer.TransferPackage` hold identical network
weights until one of them retrains — only their prototypes differ — and
each exposes that as ``fusion_key()``: ``(weights_token, serving dtype)``.
At the start of every heap pass the drain groups the head batches of ready
lanes with equal keys, embeds each group's stacked
windows in one call and classifies them against the group's stacked
prototypes in as few distance calls as
:data:`~repro.edge.inference.STACKED_DISTANCES` allows
(:func:`~repro.edge.inference.classify_stacked`).
Each batch parks its class ids with the NCM state they came from; when the
heap reaches the lane, in the usual order, it takes them only if its
requests, fusion key and NCM state are unchanged, and is served unfused
otherwise (expiry, cancellation, coalescing, new weights or prototypes, a
replaced device).  A fused lane is charged the same modeled service time
as an unfused one, so fusion changes no simulated number; its measured
``wall_seconds`` is its row share of the fused pass.  With one lane, under
EDF, and on the concurrent executors nothing fuses.  Stacked rows are
byte-equal to a lane's own embedding for lane batches of 2+ rows; a 1-row
batch differs in the last bits, because BLAS serves a 1-row product with a
matrix-vector kernel.

Batch *execution* is a pluggable seam (``executor=``, see
:mod:`repro.serving.executor`): the scheduler prepares each lane's next
batch (queue pop, deadline expiry, window coalescing) and completes its
futures/stats, while the executor decides where the engine call runs —
inline on the simulated clock (:class:`~repro.serving.executor
.SerialExecutor`, the default; fused lanes are answered inline by the
scheduler itself), on a thread pool, or on persistent worker processes
whose results come back over an IPC queue
(:class:`~repro.serving.executor.ProcessExecutor`).
Concurrent executors drain in *rounds* — one batch per non-empty lane per
round, lanes in parallel — which preserves every per-lane ordering
guarantee (FIFO/EDF, expiry, admission) because lanes never share state;
their ``DeviceStats`` rows are labelled ``clock="wall"`` since the
measured elapsed time replaces the modeled device-seconds.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import precision
from repro.edge.inference import classify_stacked
from repro.exceptions import (
    ConfigurationError,
    DataError,
    DeadlineExceededError,
    RequestCancelledError,
    RoutingError,
    ServingError,
)
from repro.serving.report import DeviceStats, RoutingReport
from repro.serving.executor import Executor, LaneResult, LaneTask, make_executor
from repro.serving.protocol import PendingResult, PredictResponse
from repro.serving.routing import RoutingPolicy, make_routing_policy
from repro.utils.clock import perf_seconds
from repro.utils.rng import RandomState, resolve_rng

__all__ = ["EventLoopScheduler", "SCHEDULING_ORDERS", "service_seconds"]

#: Queue orders understood by :class:`EventLoopScheduler` (and the
#: ``pilote fleet-sim --scheduling`` flag).
SCHEDULING_ORDERS = ("fifo", "edf")

#: Most-recent per-request latencies kept per device for percentile views.
#: Bounds long-lived clients (the legacy path kept no per-request history);
#: a few MB per device at the cap.  Trimming waits until 2x the cap so the
#: compaction cost amortises to O(1) per request.
LATENCY_HISTORY_CAP = 100_000

# The simulated service-time model.  Both constants were fitted once, by
# relative least squares, to ``FleetDevice.infer`` wall times at float32 on a
# 2-vCPU x86 container (BLAS on one thread): four backbones from
# 80-128-64-32 to 80-1024-512-128-64-128, batches of 1-256 rows.  Median
# error of the fit is ~20%; what matters is that the model is fixed.
#: Per-call cost of one engine batch on a ``relative_compute=1.0`` device.
BATCH_SECONDS = 7.0e-5
#: Seconds per FLOP of embedding work on a ``relative_compute=1.0`` device.
SECONDS_PER_FLOP = 2.5e-11
#: Per-row FLOPs charged to devices that serve without an
#: ``EmbeddingNetwork`` (test adapters, bare callables): the serving
#: backbone's 80-256-128-32.
REFERENCE_ROW_FLOPS = 114_688


def service_seconds(device, rows: int) -> float:
    """Simulated seconds ``device`` takes to serve a batch of ``rows`` windows.

    ``(BATCH_SECONDS + rows * flops_per_row * SECONDS_PER_FLOP) /
    relative_compute``, where ``flops_per_row`` is the served network's
    :attr:`~repro.core.embedding.EmbeddingNetwork.flops_per_row`
    (:data:`REFERENCE_ROW_FLOPS` when the device has none).  A pure
    function of the batch, so the same seed gives the same clock.
    """
    engine = getattr(device, "engine", None)
    model = getattr(getattr(engine, "learner", None), "model", None)
    flops = getattr(model, "flops_per_row", REFERENCE_ROW_FLOPS)
    return (
        (BATCH_SECONDS + rows * flops * SECONDS_PER_FLOP)
        / device.profile.relative_compute
    )


class _Batch:
    """One queue entry: co-arriving requests bound for the same lane.

    Owns the shared completion state — the engine output matrix, the device
    that answered and the simulated completion time — which the per-request
    futures view through their index.  ``deadline`` is the EDF sort key
    shared by every request in the batch (``None`` on FIFO lanes, where
    mixed-deadline requests coalesce by arrival alone).
    """

    __slots__ = (
        "requests", "futures", "arrival", "scheduler",
        "outputs", "device_id", "completion", "finished",
        "error", "errors", "watchers", "_offsets",
        "deadline", "has_deadlines", "lane", "n_cancelled", "parked",
    )

    def __init__(self, arrival: float, scheduler: "EventLoopScheduler") -> None:
        self.requests: List = []
        self.futures: List["_BatchFuture"] = []
        self.arrival = arrival
        self.scheduler = scheduler
        self.outputs: Optional[np.ndarray] = None
        self.device_id = -1
        self.completion = 0.0
        self.finished = False
        self.error: Optional[BaseException] = None   # batch-wide failure
        self.errors: Optional[Dict[int, BaseException]] = None  # per request
        self.watchers: Optional[list] = None  # (future, callback) pairs
        self._offsets: Optional[List[int]] = None
        self.deadline: Optional[float] = None  # shared EDF key, if any
        self.has_deadlines = False  # any request carries a deadline
        self.lane = -1  # queue position, set at enqueue (feeds lane_of)
        self.n_cancelled = 0  # futures flagged by cancel(), pending pop
        self.parked: Optional[_Parked] = None  # slice of a stacked embedding

    def offsets(self) -> List[int]:
        """Lazy cumulative window offsets for per-request output slices."""
        if self._offsets is None:
            self._offsets = list(itertools.accumulate(
                (r.features.shape[0] for r in self.requests), initial=0
            ))
        return self._offsets

    def finish(
        self, outputs: Optional[np.ndarray], device_id: int, completion: float,
        error: Optional[BaseException] = None,
    ) -> None:
        if self.finished:
            raise ServingError("request batch completed twice (double-answered)")
        self.outputs = outputs
        self.device_id = device_id
        self.completion = completion
        self.error = error
        self.finished = True
        # Futures point at their batch; dropping the batch's list of them
        # leaves no reference cycle, so answered batches are freed by
        # reference counting instead of waiting for a cyclic-GC pass.
        self.futures = None
        if self.watchers:
            for future, callback in self.watchers:
                callback(future)
            self.watchers = None

    def fail_future(self, future: "_BatchFuture", error: BaseException) -> None:
        """Record a per-request failure (deadline expiry) before execution.

        The future is parked on a unique *negative* index so surviving
        futures can be re-indexed onto the compacted batch without their new
        indices colliding with recorded error slots.
        """
        if self.errors is None:
            self.errors = {}
        future._index = -1 - len(self.errors)
        self.errors[future._index] = error
        if self.watchers:
            still_waiting = []
            for watcher, callback in self.watchers:
                if watcher is future:
                    callback(watcher)
                else:
                    still_waiting.append((watcher, callback))
            self.watchers = still_waiting or None


class _Parked:
    """A head batch's answer from a pass fused across lanes.

    Parked on the batch at the start of a serial heap pass and used when the
    heap reaches the lane — but only if the batch still holds exactly the
    ``n_requests`` requests of the ``requests`` list it was stacked from
    (expiry and cancellation replace that list, coalescing grows it), the
    device still reports the same fusion ``key`` and its engine accepts the
    NCM ``state`` the ``class_ids`` came from.  ``seconds`` is the lane's
    row share of the fused pass's wall time (it feeds ``wall_seconds`` only).
    """

    __slots__ = ("key", "requests", "n_requests", "windows", "class_ids", "state", "seconds")

    def __init__(self, key, requests, windows, class_ids, state, seconds) -> None:
        self.key = key
        self.requests = requests
        self.n_requests = len(requests)
        self.windows = windows
        self.class_ids = class_ids
        self.state = state
        self.seconds = seconds


def _fusion_key(device) -> Optional[tuple]:
    """The device's ``fusion_key()``; ``None`` for devices without one.

    Only device types whose ``infer`` is exactly ``engine.predict`` under
    their serving dtype define it (``FleetDevice``); wrappers and adapters
    that inject behaviour into ``infer`` do not, so they always serve
    through it.
    """
    fusion_key = getattr(device, "fusion_key", None)
    return fusion_key() if fusion_key is not None else None


def _batch_windows(requests: Sequence) -> np.ndarray:
    """The coalesced window matrix of a batch's requests, in queue order."""
    if len(requests) == 1:
        return requests[0].features
    return np.concatenate([r.features for r in requests], axis=0)


def _queue_batch(queue: Deque[_Batch], arrival: float, scheduler) -> _Batch:
    """The batch to enqueue into, keeping the lane ordered by arrival.

    Common case (non-decreasing arrivals, as every open-loop generator
    emits): coalesce with or append after the tail — one comparison.  An
    out-of-order submission walks back from the tail so earlier arrivals
    are still served first and never head-of-line blocked (or spuriously
    deadline-expired) behind later ones.
    """
    if not queue or queue[-1].arrival <= arrival:
        if queue and queue[-1].arrival == arrival:
            return queue[-1]
        batch = _Batch(arrival, scheduler)
        queue.append(batch)
        return batch
    index = len(queue) - 1
    while index > 0 and queue[index - 1].arrival > arrival:
        index -= 1
    if index > 0 and queue[index - 1].arrival == arrival:
        return queue[index - 1]
    batch = _Batch(arrival, scheduler)
    queue.insert(index, batch)
    return batch


class _FifoLane:
    """Arrival-ordered lane queue — the legacy drain order (the default)."""

    __slots__ = ("batches",)

    def __init__(self) -> None:
        self.batches: Deque[_Batch] = deque()

    def __bool__(self) -> bool:
        return bool(self.batches)

    def pending_requests(self) -> int:
        return sum(len(batch.requests) for batch in self.batches)

    def work_ahead(self, deadline: Optional[float]) -> int:
        # FIFO serves strictly in arrival order: everything queued is ahead.
        return self.pending_requests()

    def batch_for(self, arrival: float, deadline: Optional[float], scheduler) -> _Batch:
        # FIFO coalesces purely by arrival: mixed deadlines share one batch.
        return _queue_batch(self.batches, arrival, scheduler)

    def next_begin(self, available: float) -> float:
        return max(available, self.batches[0].arrival)

    def pop(self, available: float) -> Optional[_Batch]:
        return self.batches.popleft() if self.batches else None


class _EdfLane:
    """Earliest-deadline-first lane queue.

    Batches coalesce per ``(arrival, deadline)`` pair, so every batch has a
    single, immutable sort key.  A batch is *released* once the lane's clock
    reaches its arrival; among released batches the earliest deadline is
    served first (deadline-less batches sort last, in arrival order — the
    FIFO fallback).  Work is conserved: a lane never idles past released
    work waiting for a not-yet-arrived urgent batch.
    """

    __slots__ = ("_by_key", "_pending", "_ready", "_seq")

    def __init__(self) -> None:
        # (arrival, deadline) -> queued batch, for coalescing resubmissions.
        self._by_key: Dict[Tuple[float, Optional[float]], _Batch] = {}
        self._pending: List[tuple] = []  # (arrival, seq, batch), unreleased
        self._ready: List[tuple] = []    # (deadline_key, arrival, seq, batch)
        self._seq = 0

    def __bool__(self) -> bool:
        return bool(self._by_key)

    def pending_requests(self) -> int:
        return sum(len(batch.requests) for batch in self._by_key.values())

    def work_ahead(self, deadline: Optional[float]) -> int:
        """Queued requests EDF would serve before a new one at ``deadline``.

        Only batches with an earlier-or-equal deadline delay it; deadline-
        less batches sort last and never block deadline work (``None`` here
        means the *new* request is deadline-less, behind everything).
        """
        if deadline is None:
            return self.pending_requests()
        return sum(
            len(batch.requests)
            for (_, key), batch in self._by_key.items()
            if key is not None and key <= deadline
        )

    def batch_for(self, arrival: float, deadline: Optional[float], scheduler) -> _Batch:
        key = (arrival, deadline)
        batch = self._by_key.get(key)
        if batch is None:
            batch = _Batch(arrival, scheduler)
            batch.deadline = deadline
            self._by_key[key] = batch
            self._seq += 1
            heapq.heappush(self._pending, (arrival, self._seq, batch))
        return batch

    def next_begin(self, available: float) -> float:
        # Both heap tuples carry the batch arrival at slot [-3]:
        # pending is (arrival, seq, batch), ready (key, arrival, seq, batch).
        earliest = min(heap[0][-3] for heap in (self._pending, self._ready) if heap)
        return max(available, earliest)

    def _release_through(self, horizon: float) -> None:
        while self._pending and self._pending[0][0] <= horizon:
            arrival, seq, batch = heapq.heappop(self._pending)
            key = np.inf if batch.deadline is None else batch.deadline
            heapq.heappush(self._ready, (key, arrival, seq, batch))

    def pop(self, available: float) -> Optional[_Batch]:
        self._release_through(available)
        if not self._ready:
            if not self._pending:
                return None
            # Nothing has arrived yet: jump to the earliest arrival and
            # release everything landing at that instant.
            self._release_through(self._pending[0][0])
        _, _, _, batch = heapq.heappop(self._ready)
        del self._by_key[(batch.arrival, batch.deadline)]
        return batch


_LANE_CLASSES = {"fifo": _FifoLane, "edf": _EdfLane}


class _RejectedResult(PendingResult):
    """Already-failed future for a request rejected at admission time."""

    __slots__ = ("_error",)

    def __init__(self, request, error: BaseException) -> None:
        self.request = request
        self._error = error

    def done(self) -> bool:
        return True

    def add_done_callback(self, callback) -> None:
        callback(self)

    def exception(self) -> Optional[BaseException]:
        return self._error

    def result(self) -> PredictResponse:
        raise self._error


class _BatchFuture(PendingResult):
    """Three-slot future viewing its batch's shared completion state."""

    __slots__ = ("_batch", "_index", "_cancel_flag")

    def __init__(self, request, batch: _Batch, index: int) -> None:
        self.request = request
        self._batch = batch
        self._index = index
        self._cancel_flag = False

    # -- PendingResult interface ---------------------------------------- #
    def done(self) -> bool:
        batch = self._batch
        return batch.finished or (
            batch.errors is not None and self._index in batch.errors
        )

    def add_done_callback(self, callback) -> None:
        if self.done():
            callback(self)
            return
        batch = self._batch
        if batch.watchers is None:
            batch.watchers = []
        batch.watchers.append((self, callback))

    def cancel(self) -> bool:
        """Flag this queued request for cancellation (advisory).

        A cancelled request is failed with
        :class:`~repro.exceptions.RequestCancelledError` when its lane next
        pops the batch — *before* any engine call, so the cancelled work is
        never executed.  If the batch reaches service first (or has already
        finished), the request is served normally and ``cancel`` returns
        ``False`` retroactively only in the already-done case; a flagged
        future that still gets served simply resolves with its answer (the
        hedging layer counts those as wasted, not cancelled).
        """
        if self.done():
            return False
        if not self._cancel_flag:
            self._cancel_flag = True
            self._batch.n_cancelled += 1
        return True

    def cancelled(self) -> bool:
        return self._cancel_flag

    def exception(self) -> Optional[BaseException]:
        self._ensure_done()
        return self._my_error()

    def result(self) -> PredictResponse:
        batch = self._batch
        # Every answer is read here: an answered batch skips the calls.
        if not batch.finished or batch.errors is not None or batch.error is not None:
            self._ensure_done()
            error = self._my_error()
            if error is not None:
                raise error
        offsets = batch._offsets or batch.offsets()
        index = self._index
        return PredictResponse(
            self.request, batch.outputs[offsets[index]:offsets[index + 1]],
            batch.device_id, batch.completion,
        )

    # ------------------------------------------------------------------ #
    def _my_error(self) -> Optional[BaseException]:
        batch = self._batch
        if batch.errors is not None:
            error = batch.errors.get(self._index)
            if error is not None:
                return error
        return batch.error

    def _ensure_done(self) -> None:
        if not self.done():
            self._batch.scheduler.drain()
        if not self.done():
            raise ServingError(
                "request is still pending; drain() the serving client "
                "(or submit through a client, which drains on result())"
            )


class _PreparedBatch:
    """One lane's next batch, popped/expired/coalesced and ready to execute.

    The scheduler-side half of the executor seam: everything decided
    *before* the engine call (which device, which requests survived expiry,
    the coalesced window matrix, the simulated begin time) travels in this
    struct so ``_complete`` can apply the outcome without re-deriving lane
    state.  ``windows`` is ``None`` when every request expired before
    service — there is nothing to execute, but ``n_resolved`` futures were
    already resolved by the expiry.  ``parked`` carries the batch's
    still-valid answer from a fused pass, if the serial drain fused it.
    """

    __slots__ = (
        "position", "batch", "device", "stats", "begin", "n_resolved",
        "windows", "parked",
    )

    def __init__(
        self, position, batch, device, stats, begin, n_resolved, windows=None,
        parked=None,
    ) -> None:
        self.position = position
        self.batch = batch
        self.device = device
        self.stats = stats
        self.begin = begin
        self.n_resolved = n_resolved
        self.windows = windows
        self.parked = parked


def _lane_runs(
    assignment: np.ndarray, arrivals: np.ndarray, n_lanes: int
) -> List[Tuple[int, List[int]]]:
    """Request indices grouped into ``(lane, indices)`` runs, in enqueue order.

    Lanes ascend; within a lane, requests keep submission order and a new
    run starts wherever the arrival time changes from the previous request
    of that lane (one run per tick in the common open-loop case).  One
    stable sort by lane, cut where the lane or the arrival changes, instead
    of a scan of the whole assignment per lane.
    """
    order = np.argsort(assignment, kind="stable")
    lanes = assignment[order]
    if lanes.size and (lanes[0] < 0 or lanes[-1] >= n_lanes):
        raise RoutingError(
            f"lane assignment out of range [0, {n_lanes}): "
            f"{int(lanes[0])}..{int(lanes[-1])}"
        )
    ordered = arrivals[order]
    cuts = np.flatnonzero((lanes[1:] != lanes[:-1]) | (ordered[1:] != ordered[:-1]))
    bounds = [0, *(cuts + 1).tolist(), int(order.size)]
    indices = order.tolist()
    return [
        (int(lanes[start]), indices[start:end])
        for start, end in zip(bounds[:-1], bounds[1:])
    ]


class EventLoopScheduler:
    """Future-completing scheduler over a live list of fleet devices.

    Parameters
    ----------
    devices:
        Device-like targets exposing ``infer(windows)``, ``device_id`` and
        ``profile`` (``FleetDevice`` or the client's local adapters).  When
        given a list — e.g. ``FleetCoordinator.devices`` — the scheduler
        keeps a *live view*, so ``replace_device`` takes effect for requests
        already queued; the device *count* must stay fixed.
    policy:
        A :class:`~repro.serving.routing.RoutingPolicy`, a policy name, or
        ``None`` for the default seeded hash.
    seed:
        Seeds the routing policy (hash salts); same seed, same assignment.
    scheduling:
        Per-lane queue order, one of :data:`SCHEDULING_ORDERS`:
        ``"fifo"`` (arrival order, the default) or ``"edf"``
        (earliest-deadline-first; see the module docstring for the full
        deadline semantics).
    executor:
        Where batches execute — an :class:`~repro.serving.executor.Executor`
        instance or registry name (``"serial"``/``"thread"``/``"process"``);
        ``None`` means the inline serial executor, the only one whose
        drain fuses lanes that share weights.  Queue order, routing and deadline
        accounting compose unchanged with every executor.
    workers:
        Pool size for the concurrent executors (default: one per CPU core,
        capped at the lane count); only valid with an executor *name*.
    """

    def __init__(
        self,
        devices: Sequence,
        policy: Optional[RoutingPolicy] = None,
        *,
        seed: RandomState = None,
        scheduling: str = "fifo",
        executor: Union[str, Executor, None] = None,
        workers: Optional[int] = None,
    ) -> None:
        if not devices:
            raise RoutingError("the scheduler needs at least one device")
        if scheduling not in _LANE_CLASSES:
            raise ConfigurationError(
                f"unknown scheduling order {scheduling!r}; "
                f"expected one of {SCHEDULING_ORDERS}"
            )
        self._devices = devices if isinstance(devices, list) else list(devices)
        self._n_lanes = len(self._devices)
        self.policy = make_routing_policy(policy)
        self.policy.bind(self._n_lanes, resolve_rng(seed))
        self.scheduling = scheduling
        self._executor = make_executor(executor, workers=workers)
        self._executor.bind(self._devices)
        self._wall_clock = self._executor.clock == "wall"
        lane_class = _LANE_CLASSES[scheduling]
        self._lanes = [lane_class() for _ in range(self._n_lanes)]
        self._edf = scheduling == "edf"
        self._pending_counts = np.zeros(self._n_lanes, dtype=np.float64)
        self._available_at = np.zeros(self._n_lanes, dtype=np.float64)
        # Per-lane service history (survives device replacement, unlike the
        # per-device stats rows) — feeds the balancing policies' rate term.
        self._lane_served = np.zeros(self._n_lanes, dtype=np.float64)
        self._lane_busy = np.zeros(self._n_lanes, dtype=np.float64)
        # Rows are labelled with the executor's clock up front so reports
        # stay consistently "wall"/"simulated" even for devices that only
        # ever expired or failed their traffic.
        self._clock = self._executor.clock
        self._stats: Dict[int, DeviceStats] = {
            d.device_id: self._stats_row(d) for d in self._devices
        }
        self._total_requests = 0   # served (matches the per-device rows)
        self._total_windows = 0
        self._total_expired = 0    # deadline passed while queued
        self._total_rejected = 0   # deadline already unmeetable at submit
        self._total_failed = 0     # device.infer raised mid-batch
        self._total_cancelled = 0  # cancelled before service (hedge losers)
        # Cumulative per-lane failed-request counts (survive device
        # replacement, like the served/busy lane history); the control
        # plane's window diffing turns these into a recent-failures signal.
        self._lane_failures = np.zeros(self._n_lanes, dtype=np.int64)
        self._event_counter = 0

    # ------------------------------------------------------------------ #
    @property
    def devices(self) -> Sequence:
        """The live device list behind the lanes."""
        return self._devices

    @property
    def n_devices(self) -> int:
        return len(self._devices)

    @property
    def executor(self) -> Executor:
        """The executor batches run on (serial/thread/process)."""
        return self._executor

    def close(self) -> None:
        """Release the executor's worker pools (idempotent)."""
        self._executor.close()

    def __enter__(self) -> "EventLoopScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def pending_requests(self) -> int:
        """Requests submitted but not yet answered."""
        return sum(lane.pending_requests() for lane in self._lanes)

    def clock_now(self) -> float:
        """The scheduler clock's current reading, for stamping live arrivals.

        The latest lane completion so far — exactly where the concurrent
        drain anchors its measured clock (``base = max(available_at)``) and
        the earliest instant a new submission could be served everywhere.
        Network front doors stamp ``arrival_seconds`` from this, so latency
        accounting stays monotone across drains instead of every wire
        request claiming it arrived at time zero (which would eventually
        mass-reject live traffic through admission control as the lane
        clocks run ahead of it).
        """
        return float(self._available_at.max()) if self._n_lanes else 0.0

    def fail_pending(self, error: BaseException) -> int:
        """Resolve every still-queued request with ``error``, exactly once.

        The close path's guarantee that no future is silently dropped:
        every batch still sitting in a lane is finished with the typed
        error (counted in ``total_failed``), firing any registered
        done-callbacks.  Returns the number of requests failed.
        """
        failed = 0
        for position, lane in enumerate(self._lanes):
            lane_failed = 0
            while lane:
                batch = lane.pop(float("inf"))
                if batch is None:
                    break
                n_requests = len(batch.requests)
                self._pending_counts[position] -= n_requests
                batch.parked = None
                batch.finish(
                    None, -1, float(self._available_at[position]), error=error
                )
                lane_failed += n_requests
            if lane_failed:
                self._lane_failures[position] += lane_failed
                stats = self._stats_for(self._devices[position])
                stats.failures += lane_failed
                stats.queue_depth = int(self._pending_counts[position])
                failed += lane_failed
        self._total_failed += failed
        return failed

    def lane_loads(self, now: float) -> np.ndarray:
        """Per-lane load estimate (in requests) for the balancing policies.

        Queued-but-unserved requests, plus each lane's simulated backlog
        beyond ``now`` converted to requests through the lane's observed
        service rate (requests per simulated busy second; kept per *lane*,
        so a device replacement does not reset it).  Before any service
        history exists the backlog term is zero and queued requests alone
        drive the decision.
        """
        backlog = np.maximum(self._available_at - now, 0.0)
        if backlog.any():
            rates = np.divide(
                self._lane_served,
                self._lane_busy,
                out=np.zeros(self._n_lanes),
                where=self._lane_busy > 0,
            )
            return self._pending_counts + backlog * rates
        return self._pending_counts.copy()

    # -- control-plane signal surface ---------------------------------- #
    @property
    def lane_failures(self) -> np.ndarray:
        """Cumulative per-lane failed-request counts (a copy).

        Kept per lane (not per device) so a crash-replace does not reset
        it; the control plane diffs snapshots of this for its rolling
        recent-failures signal.
        """
        return self._lane_failures.copy()

    def lane_of(self, future) -> Optional[int]:
        """The lane a still-queued future was enqueued on, else ``None``.

        ``None`` for foreign futures (other schedulers, rejected results,
        hedged wrappers) — callers use it to tell "queued here" apart from
        "already resolved at admission".
        """
        batch = getattr(future, "_batch", None)
        if batch is None or batch.scheduler is not self:
            return None
        return batch.lane if batch.lane >= 0 else None

    def projected_begin_for(
        self, position: int, arrival: float, deadline: Optional[float] = None
    ) -> float:
        """Estimate when a request arriving now would begin service.

        The lane's hard floor (``max(available_at, arrival)``) plus the
        queued work that would be served first — *all* of it on a FIFO
        lane, only earlier-or-equal deadlines on an EDF lane — converted
        to seconds through the lane's observed service rate.  Before any
        service history exists the queue term is zero and the floor alone
        answers (matching admission control, which then stays the only
        gate).  This is the quantity hedging compares against a request's
        deadline.
        """
        base = max(float(self._available_at[position]), arrival)
        ahead = self._lanes[position].work_ahead(deadline)
        if not ahead:
            return base
        served = float(self._lane_served[position])
        busy = float(self._lane_busy[position])
        if served <= 0.0 or busy <= 0.0:
            return base
        return base + ahead * (busy / served)

    def _note_queue_depth(self, position: int) -> None:
        """Mirror a lane's live queued-count gauge onto its stats row."""
        stats = self._stats_for(self._devices[position])
        stats.queue_depth = int(self._pending_counts[position])

    def _stats_for(self, device) -> DeviceStats:
        """The device's stats row, created on first use.

        A replacement device (crash/restore) may carry a new id; it inherits
        the lane but gets its own row.
        """
        stats = self._stats.get(device.device_id)
        if stats is None:
            stats = self._stats[device.device_id] = self._stats_row(device)
        return stats

    def _stats_row(self, device) -> DeviceStats:
        """A fresh stats row for a device, on this scheduler's clock."""
        return DeviceStats(
            device_id=device.device_id,
            profile=device.profile.name,
            clock=self._clock,
        )

    # ------------------------------------------------------------------ #
    def replace_device(self, device_id: int, replacement) -> None:
        """Swap a (crashed) device; its queued requests go to the replacement.

        In-flight entries live on the lane, not the device object, so nothing
        is dropped or double-answered: the replacement simply serves the
        lane's queue from its next event on.
        """
        for position, device in enumerate(self._devices):
            if device.device_id == device_id:
                self._devices[position] = replacement
                return
        raise RoutingError(f"no device with id {device_id} behind this scheduler")

    # ------------------------------------------------------------------ #
    def submit(self, request) -> PendingResult:
        """Queue one request; returns its future."""
        return self.submit_many([request])[0]

    def submit_many(self, requests: Sequence) -> List[PendingResult]:
        """Queue a batch of requests (vectorised routing), one future each.

        Requests assigned to the same device with the same arrival time are
        coalesced into one engine call at drain time, which is what keeps the
        per-request overhead below the engine's own per-request cost.
        Requests whose deadline is already unmeetable on their lane are
        rejected here (their futures complete immediately with
        :class:`~repro.exceptions.DeadlineExceededError`).
        """
        if not requests:
            return []
        if len(self._devices) != self._n_lanes:
            raise RoutingError(
                f"the fleet changed size ({self._n_lanes} -> {len(self._devices)}); "
                "build a new scheduler — the device count is fixed at construction"
            )
        if self._n_lanes == 1:
            # Routing is a no-op with a single lane; skip the policy and the
            # per-request id extraction entirely (the serve(learner),
            # serve(platform) and one-device-fleet hot path).
            return self._enqueue_single_lane(requests)
        user_ids = np.fromiter(
            (r.user_id for r in requests), dtype=np.int64, count=len(requests)
        )
        assignment = self.policy.assign_batch(requests, user_ids, self)
        return self._enqueue(requests, assignment)

    def _enqueue_single_lane(self, requests: Sequence) -> List[PendingResult]:
        if not isinstance(requests, list):
            requests = list(requests)
        arrivals = np.fromiter(
            (r.arrival_seconds for r in requests),
            dtype=np.float64,
            count=len(requests),
        )
        boundaries = np.flatnonzero(np.diff(arrivals)) + 1
        futures: List[PendingResult] = []
        start = 0
        for end in [*boundaries.tolist(), len(requests)]:
            futures.extend(
                self._enqueue_segment(0, float(arrivals[start]), requests[start:end])
            )
            start = end
        return futures

    def submit_assigned(self, requests: Sequence, assignment: np.ndarray) -> List[PendingResult]:
        """Queue requests with a precomputed lane assignment (deployed-lane routing)."""
        if not requests:
            return []
        if len(self._devices) != self._n_lanes:
            raise RoutingError(
                f"the fleet changed size ({self._n_lanes} -> {len(self._devices)}); "
                "build a new scheduler — the device count is fixed at construction"
            )
        return self._enqueue(requests, np.asarray(assignment, dtype=np.int64))

    def _enqueue(self, requests: Sequence, assignment: np.ndarray) -> List[PendingResult]:
        futures: List[Optional[PendingResult]] = [None] * len(requests)
        arrivals = np.fromiter(
            (r.arrival_seconds for r in requests),
            dtype=np.float64,
            count=len(requests),
        )
        for lane, segment in _lane_runs(assignment, arrivals, self._n_lanes):
            segment_futures = self._enqueue_segment(
                lane, float(arrivals[segment[0]]), [requests[i] for i in segment]
            )
            for index, future in zip(segment, segment_futures):
                futures[index] = future
        return futures  # type: ignore[return-value]

    def _enqueue_segment(
        self, position: int, arrival: float, segment: Sequence
    ) -> List[PendingResult]:
        """Queue one run of co-arriving requests onto one lane.

        The no-deadline fast path appends the whole segment to a single
        arrival-keyed batch; segments carrying deadlines go through admission
        control and (under EDF) per-deadline grouping.
        """
        if any(
            request.deadline_seconds is not None
            for request in segment
        ):
            return self._enqueue_deadline_segment(position, arrival, segment)
        batch = self._lanes[position].batch_for(arrival, None, self)
        batch.lane = position
        base = len(batch.requests)
        futures: List[PendingResult] = [
            _BatchFuture(request, batch, base + offset)
            for offset, request in enumerate(segment)
        ]
        batch.requests.extend(segment)
        batch.futures.extend(futures)
        self._pending_counts[position] += len(segment)
        self._note_queue_depth(position)
        return futures

    def _enqueue_deadline_segment(
        self, position: int, arrival: float, segment: Sequence
    ) -> List[PendingResult]:
        lane = self._lanes[position]
        # Admission floor: the lane cannot start any new work earlier than
        # max(its simulated backlog, the arrival itself) — a deadline below
        # it can never be met, so fail the future now instead of queueing.
        floor = max(float(self._available_at[position]), arrival)
        futures: List[Optional[PendingResult]] = [None] * len(segment)
        groups: Dict[Optional[float], List[int]] = {}
        rejected = 0
        admitted = 0
        for index, request in enumerate(segment):
            deadline = request.deadline_seconds
            if deadline is not None:
                if floor > deadline:
                    futures[index] = _RejectedResult(
                        request,
                        DeadlineExceededError(
                            f"user {request.user_id}: rejected at admission — "
                            f"service cannot start before {floor:.6f}s, past "
                            f"the deadline {deadline:.6f}s"
                        ),
                    )
                    self._total_rejected += 1
                    rejected += 1
                    continue
            # FIFO keeps the legacy arrival-only coalescing; EDF separates
            # co-arriving deadlines so the queue order can discriminate.
            groups.setdefault(deadline if self._edf else None, []).append(index)
            admitted += 1
        for deadline, indices in groups.items():
            batch = lane.batch_for(arrival, deadline, self)
            batch.lane = position
            if deadline is not None or not self._edf:
                batch.has_deadlines = True
            base = len(batch.requests)
            for offset, index in enumerate(indices):
                request = segment[index]
                future = _BatchFuture(request, batch, base + offset)
                batch.requests.append(request)
                batch.futures.append(future)
                futures[index] = future
        self._pending_counts[position] += admitted
        self._note_queue_depth(position)
        if rejected:
            # Rejections are deadline outcomes too: they count against the
            # rolling attainment window exactly as queue expiries do.
            stats = self._stats_for(self._devices[position])
            for _ in range(rejected):
                stats.note_deadline(False)
        return futures  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    def drain(self) -> int:
        """Run the event loop until every queued request is resolved.

        With the (default) serial executor, lanes are processed in
        simulated-clock order: the heap always pops the lane whose next
        batch starts earliest (``max(available_at, batch arrival)``),
        mirroring devices draining their queues in parallel.  Each heap
        pass first answers the head batches of FIFO lanes that share
        weights in one stacked pass (see the module docstring); the pops
        then complete them in the same order as ever.  With a
        concurrent executor the loop instead runs *rounds* — one batch per
        non-empty lane, executed in parallel, futures completed from the
        executor's results — which preserves every per-lane ordering
        guarantee because lanes share no queue state.  Done-callbacks may
        submit follow-up requests mid-drain (including onto lanes already
        drained) and may even re-enter ``drain()``; both loops re-scan the
        lanes until no queued request remains (the concurrent loop applies
        a whole round's clock/stats bookkeeping *before* firing any of the
        round's completion callbacks, so a re-entrant drain never sees a
        lane clock that an in-flight result is about to move).  Returns
        the number of requests this call resolved — answered, expired past
        their deadline, or failed (``report()`` separates the three).
        """
        if self._executor.concurrent:
            return self._drain_concurrent()
        resolved = 0
        while True:
            heap = []
            for position, lane in enumerate(self._lanes):
                if lane:
                    self._event_counter += 1
                    begin = lane.next_begin(self._available_at[position])
                    heap.append((begin, self._event_counter, position))
            if not heap:
                return resolved
            if len(heap) > 1 and not self._edf:
                self._embed_heads(heap)
            heapq.heapify(heap)
            while heap:
                _, _, position = heapq.heappop(heap)
                resolved += self._execute_next(position)
                lane = self._lanes[position]
                if lane:
                    self._event_counter += 1
                    begin = lane.next_begin(self._available_at[position])
                    heapq.heappush(heap, (begin, self._event_counter, position))
            # A done-callback may have enqueued onto a lane that already left
            # the heap — the outer loop re-scans until everything is served.

    def _drain_concurrent(self) -> int:
        """Round-based drain: one batch per non-empty lane, lanes parallel.

        In wall-clock mode, completions are stamped from one shared
        measured clock (anchored at this drain's start, continuing from the
        latest lane completion so the timeline is monotone across drains)
        rather than per-lane sums of in-worker service times: a lane that
        waited for a busy worker *completes later*, so the makespan — and
        the aggregate throughput derived from it — reflects what the pool
        actually achieved, not a hypothetical fully-parallel fleet.  Idle
        time between drains is excluded (the anchor resets per drain), so
        the clock only advances while serving.  ``arrival_seconds`` keeps
        its usual role as a release floor (``begin = max(available,
        arrival)``) — on *this* clock, exactly as on the simulated one —
        so streams carrying large simulated arrival offsets should be
        replayed with zeroed arrivals when measuring raw pool throughput
        (every shipped workload path does).
        """
        resolved = 0
        origin = perf_seconds()
        base = float(self._available_at.max()) if self._n_lanes else 0.0
        while True:
            prepared_round: List[_PreparedBatch] = []
            any_work = False
            for position, lane in enumerate(self._lanes):
                if not lane:
                    continue
                prepared = self._prepare_next(position)
                if prepared is None:
                    continue
                any_work = True
                resolved += prepared.n_resolved
                if prepared.windows is not None:
                    prepared_round.append(prepared)
            if not prepared_round:
                if any_work:
                    continue  # the whole round expired; lanes may hold more
                return resolved
            results = self._executor.run(
                [LaneTask(p.position, p.windows) for p in prepared_round]
            )
            by_position = {p.position: p for p in prepared_round}
            measured_now = base + (perf_seconds() - origin)
            # Two passes: book every result's clock/stats first, then fire
            # the completions.  A done-callback may re-enter drain(); by the
            # time it can run, every lane clock already reflects this whole
            # round, so the inner drain neither executes against a stale
            # _available_at nor gets rewound by the remaining completions.
            finishes = [
                self._complete(
                    by_position[result.position], result, measured_now, fire=False
                )
                for result in results
            ]
            for batch, outputs, device_id, completion, error in finishes:
                batch.finish(outputs, device_id, completion, error=error)

    def _embed_heads(self, heap: List[tuple]) -> None:
        """Answer the head batches of lanes that share weights in one pass.

        Ready FIFO lanes with equal fusion keys (same weights token, same
        serving dtype) form a group: their head batches'
        windows are embedded in one call and classified by one
        :func:`~repro.edge.inference.classify_stacked` call, and each batch
        parks its class ids (:class:`_Parked`) for the heap.  Serving order
        is untouched.  Left unfused: batches about to lose requests (flagged
        cancellations, deadlines already passed at their begin time), lanes
        whose learner has no classifier yet, and every batch of a group
        whose rows cannot be stacked or embedded (a malformed request): each
        lane then fails on its own, exactly as without fusion.
        """
        groups: Dict[tuple, List[Tuple[int, _Batch, tuple]]] = {}
        for begin, _, position in heap:
            device = self._devices[position]
            key = _fusion_key(device)
            if key is None:
                continue
            batch = self._lanes[position].batches[0]
            if batch.n_cancelled or (batch.has_deadlines and any(
                r.deadline_seconds is not None and begin > r.deadline_seconds
                for r in batch.requests
            )):
                continue
            state = device.engine.ncm_state()
            if state is not None:
                groups.setdefault(key, []).append((position, batch, state))
        for key, members in groups.items():
            if len(members) < 2:
                continue
            try:
                lane_windows = [_batch_windows(batch.requests) for _, batch, _ in members]
                stacked = np.concatenate(lane_windows, axis=0)
                # Timed like an unfused lane: the engine calls, not the copies.
                start = perf_seconds()
                embeddings = self._devices[members[0][0]].embed(stacked)
                lanes = [
                    (state[0], windows.shape[0])
                    for (_, _, state), windows in zip(members, lane_windows)
                ]
                with precision(key[1]):
                    answers = classify_stacked(lanes, embeddings)
            except (ValueError, DataError):
                continue  # malformed rows: each lane serves its own, fails alone
            seconds_per_row = (perf_seconds() - start) / stacked.shape[0]
            for (_, batch, state), windows, class_ids in zip(members, lane_windows, answers):
                batch.parked = _Parked(
                    key, batch.requests, windows, class_ids, state,
                    seconds_per_row * windows.shape[0],
                )

    def _execute_next(self, position: int) -> int:
        """Serve one queued batch on the device currently holding the lane."""
        prepared = self._prepare_next(position)
        if prepared is None:
            # A re-entrant drain (from a done-callback resolving a future)
            # already served this lane; the outer heap entry is stale.
            return 0
        if prepared.parked is not None:
            parked = prepared.parked
            self._complete(prepared, LaneResult(position, parked.class_ids, parked.seconds))
        elif prepared.windows is not None:
            result = self._executor.run(
                [LaneTask(prepared.position, prepared.windows)]
            )[0]
            self._complete(prepared, result)
        return prepared.n_resolved

    def _prepare_next(self, position: int) -> Optional["_PreparedBatch"]:
        """Pop, expire and coalesce a lane's next batch ahead of execution.

        Returns ``None`` when the lane is empty; a prepared batch whose
        ``windows`` is ``None`` when every request expired before service
        (nothing to execute, but ``n_resolved`` futures were resolved).
        """
        batch = self._lanes[position].pop(self._available_at[position])
        if batch is None:
            return None
        n_resolved = len(batch.requests)
        self._pending_counts[position] -= n_resolved
        device = self._devices[position]
        stats = self._stats_for(device)
        stats.queue_depth = int(self._pending_counts[position])
        begin = max(self._available_at[position], batch.arrival)
        parked, batch.parked = batch.parked, None
        requests = batch.requests
        if batch.has_deadlines or batch.n_cancelled:
            requests = self._filter_before_service(batch, begin, stats)
            if not requests:
                return _PreparedBatch(position, batch, device, stats, begin, n_resolved)
        if (
            parked is not None
            and parked.requests is requests
            and parked.n_requests == len(requests)
            and _fusion_key(device) == parked.key
            and device.engine.accept(parked.state)
        ):
            return _PreparedBatch(
                position, batch, device, stats, begin, n_resolved,
                parked.windows, parked,
            )
        return _PreparedBatch(
            position, batch, device, stats, begin, n_resolved,
            _batch_windows(requests),
        )

    def _complete(
        self,
        prepared: "_PreparedBatch",
        result: LaneResult,
        measured_now: Optional[float] = None,
        fire: bool = True,
    ):
        """Apply one executed batch's outcome: clock, stats, futures.

        With ``fire=False`` the bookkeeping is applied but the batch is
        *not* finished; the ``(batch, outputs, device_id, completion,
        error)`` finish arguments are returned so the concurrent drain can
        book a whole round before any done-callback runs.
        """
        batch = prepared.batch
        device = prepared.device
        stats = prepared.stats
        position = prepared.position
        begin = prepared.begin
        requests = batch.requests
        if result.error is not None:
            # Failed requests are neither served nor expired: they stay out
            # of total_requests (which must keep matching the per-device
            # rows) and are reported in total_failed.
            self._total_failed += len(requests)
            self._lane_failures[position] += len(requests)
            stats.failures += len(requests)
            if not fire:
                return (batch, None, device.device_id, begin, result.error)
            batch.finish(None, device.device_id, begin, error=result.error)
            return None
        wall = result.wall
        n_windows = int(prepared.windows.shape[0])
        if self._wall_clock:
            # Measured mode.  The batch completes at the shared measured
            # clock reading (which includes time spent waiting for a busy
            # worker — lanes outnumbering workers must not look fully
            # parallel); the in-worker elapsed time counts as busy compute.
            completion = (
                max(begin, measured_now) if measured_now is not None
                else begin + wall
            )
            service = wall
        else:
            service = service_seconds(device, n_windows)
            completion = begin + service
        self._available_at[position] = completion
        stats.available_at = completion  # feeds RoutingReport.makespan_seconds

        stats.requests += len(requests)
        stats.windows += n_windows
        stats.batches += 1
        stats.busy_seconds += service
        stats.wall_seconds += wall
        stats.max_queue_depth = max(
            stats.max_queue_depth,
            len(requests) + (1 if begin > batch.arrival else 0),
        )
        if batch.has_deadlines:
            n_deadline = 0
            n_missed = 0
            for request in requests:
                deadline = request.deadline_seconds
                if deadline is not None:
                    n_deadline += 1
                    if completion > deadline:
                        n_missed += 1
                        stats.note_deadline(False)
                    else:
                        stats.note_deadline(True)
            stats.deadline_requests += n_deadline
            stats.deadline_misses += n_missed
        self._lane_served[position] += len(requests)
        self._lane_busy[position] += service
        latency = completion - batch.arrival
        stats.total_latency_seconds += latency * len(requests)
        latencies = stats.latencies
        latencies.extend([latency] * len(requests))
        if len(latencies) > 2 * LATENCY_HISTORY_CAP:
            del latencies[: len(latencies) - LATENCY_HISTORY_CAP]
        self._total_requests += len(requests)
        self._total_windows += n_windows
        if not fire:
            return (batch, result.outputs, device.device_id, completion, None)
        batch.finish(result.outputs, device.device_id, completion)
        return None

    def _filter_before_service(self, batch: _Batch, begin: float, stats) -> List:
        """Resolve cancelled and deadline-expired requests ahead of service.

        Cancelled futures (hedge losers) fail with
        :class:`~repro.exceptions.RequestCancelledError` — counted in
        ``total_cancelled``, *not* against the deadline SLO (their logical
        request was answered by the winning twin).  Requests whose deadline
        passed while queued fail with
        :class:`~repro.exceptions.DeadlineExceededError` (``total_expired``,
        a rolling-window miss).  Kept requests are re-indexed so the batch's
        shared output offsets stay aligned with the surviving futures.
        """
        kept_requests, kept_futures = [], []
        expired = 0
        for request, future in zip(batch.requests, batch.futures):
            if future._cancel_flag:
                batch.fail_future(
                    future,
                    RequestCancelledError(
                        f"user {request.user_id}: cancelled before service "
                        f"(lane reached it at {begin:.6f}s)"
                    ),
                )
                self._total_cancelled += 1
                continue
            deadline = request.deadline_seconds
            if deadline is not None and begin > deadline:
                batch.fail_future(
                    future,
                    DeadlineExceededError(
                        f"user {request.user_id}: service would start at "
                        f"{begin:.6f}s, past the deadline {deadline:.6f}s"
                    ),
                )
                expired += 1
                stats.note_deadline(False)
            else:
                kept_requests.append(request)
                kept_futures.append(future)
        self._total_expired += expired
        batch.n_cancelled = 0
        if len(kept_requests) == len(batch.requests):
            # Nothing dropped: keep the list a parked embedding was cut from.
            return batch.requests
        for new_index, future in enumerate(kept_futures):
            future._index = new_index
        batch.requests = kept_requests
        batch.futures = kept_futures
        return kept_requests

    # ------------------------------------------------------------------ #
    def report(self) -> RoutingReport:
        """Serving statistics so far (stats keep accumulating afterwards).

        ``total_requests`` counts *served* requests only, so it always
        matches the sum of the per-device rows — expired, admission-rejected
        and failed requests are reported in ``total_expired`` /
        ``total_rejected`` / ``total_failed`` instead.
        ``resolved_requests`` is the all-time total across all four
        outcomes; ``slo_attainment`` weighs its windowed latency samples by
        it so long runs (past ``LATENCY_HISTORY_CAP``) stay consistent.
        """
        total_expired = self._total_expired + self._total_rejected
        return RoutingReport(
            per_device=dict(self._stats),
            total_requests=self._total_requests,
            total_windows=self._total_windows,
            total_expired=total_expired,
            total_rejected=self._total_rejected,
            total_failed=self._total_failed,
            total_cancelled=self._total_cancelled,
            resolved_requests=self._total_requests + total_expired + self._total_failed,
        )
