"""Pluggable batch executors behind the event-loop scheduler.

The :class:`~repro.serving.scheduler.EventLoopScheduler` decides *which*
batch runs next on each lane; an :class:`Executor` decides *where and how*
that batch actually executes.  Three implementations ship with the library
(:data:`EXECUTORS`, ``pilote fleet-sim --executor {serial,thread,process}``):

* :class:`SerialExecutor` (``"serial"``, the default) — inline execution on
  the calling thread.  The scheduler charges every batch its modeled
  service time (:func:`~repro.serving.scheduler.service_seconds`: rows x
  the network's FLOPs per row, scaled by the profile's
  ``relative_compute``), so N lanes drain "in parallel" on the simulated
  clock and a seed fully determines the result.  Its drain is also the
  only one that fuses: lanes whose devices share network weights get one
  stacked embedding per heap pass, classified per lane by the scheduler (see
  :mod:`repro.serving.scheduler`); the thread and process executors
  always serve each lane through its own ``infer``;
* :class:`ThreadExecutor` (``"thread"``) — a shared-memory thread pool.
  The numpy kernels release the GIL during GEMMs so compute overlaps
  partially, but this executor is primarily for I/O-shaped lanes (devices
  whose ``infer`` waits on something other than the interpreter);
* :class:`ProcessExecutor` (``"process"``) — a persistent pool of worker
  OS processes, one process per *lane group* (lane ``i`` always lands on
  worker ``i % workers``, keeping per-lane caches warm).  Each worker has
  its own copy of module state (the dtype policy included) and serves each
  lane from its shipped learner state — the
  :func:`~repro.core.persistence.pilote_state` format minus the exemplar
  support set — rebuilt with
  :func:`~repro.core.persistence.pilote_from_state` and answered through
  the same :class:`~repro.edge.inference.InferenceEngine` the device uses,
  under the device's compute dtype.  The state is re-shipped in full when a
  broadcast or incremental update bumps the live ``PILOTE.state_version``.
  Request futures are completed from the worker pool's IPC result queue
  inside ``drain()``.

Executors are a *mechanism* seam: FIFO/EDF queue order, routing policies
and deadline accounting all live above it in the scheduler
and compose unchanged with every implementation.  What changes is the
meaning of time (:attr:`Executor.clock`): the serial executor reports
*modeled* device latency on the simulated parallel clock, the concurrent
executors report *measured* wall-clock latency (``DeviceStats.clock ==
"wall"``), which is what ``benchmarks/bench_workers.py`` gates real
multi-core speedup on.  Deadlines follow the active clock — under a
wall-clock executor a ``deadline_seconds`` is a *real* bound, so the SLO
breakdown depends on the hardware actually serving (slow pool, more
expiries), exactly as a production deployment would; seeded,
hardware-independent deadline numbers need the serial executor, which is
why ``pilote fleet-sim`` rejects ``--deadline-ms`` with a wall-clock
executor (its generated arrivals are simulated-clock quantities).

Worker death is a first-class outcome, not a hang: when a worker process
dies mid-round, its outstanding batches fail with a typed
:class:`~repro.exceptions.WorkerDiedError` (no future is dropped or
answered twice), the worker is respawned with a fresh queue, and the next
round re-ships whatever learner states it lost.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.backend import default_dtype, precision, resolve_dtype
from repro.core.persistence import pilote_from_state, pilote_state
from repro.utils.clock import perf_seconds
from repro.exceptions import (
    ConfigurationError,
    ExecutorError,
    ServingError,
    WorkerDiedError,
)

__all__ = [
    "LaneTask",
    "LaneResult",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "make_executor",
]

#: Seconds between liveness checks while waiting on the IPC result queue.
_POLL_SECONDS = 0.1


@dataclass(frozen=True)
class LaneTask:
    """One unit of executor work: a coalesced window batch bound to a lane."""

    position: int
    windows: np.ndarray


@dataclass(frozen=True)
class LaneResult:
    """Outcome of one :class:`LaneTask`.

    ``wall`` is the engine compute measured where it ran (inside the worker
    for remote executors); ``error`` carries the typed failure instead of
    raising, so one bad batch cannot abort a whole round.
    """

    position: int
    outputs: Optional[np.ndarray]
    wall: float
    error: Optional[BaseException] = None


class Executor:
    """Strategy running the scheduler's prepared batches.

    The scheduler calls :meth:`bind` once with its *live* device list (so
    ``replace_device`` reaches executors too), then :meth:`run` with one
    task per lane and round; :meth:`close` releases pools.  ``concurrent``
    tells the scheduler whether tasks handed to one :meth:`run` call may
    execute in parallel (round-based drain) or must interleave on the
    simulated clock (the serial drain); ``clock`` labels the resulting
    ``DeviceStats`` rows (``"simulated"`` modeled latency vs ``"wall"``
    measured latency).
    """

    #: Registry key and CLI name of the executor.
    name: str = "abstract"
    #: How ``DeviceStats`` rows produced through this executor are labelled.
    clock: str = "simulated"
    #: Whether one ``run()`` call may execute its tasks in parallel.
    concurrent: bool = False

    def bind(self, devices: Sequence) -> None:
        self._devices = devices

    def run(self, tasks: Sequence[LaneTask]) -> List[LaneResult]:
        """Execute every task; returns one :class:`LaneResult` per task."""
        raise NotImplementedError  # repro: noqa[repro-errors] abstract protocol method

    def close(self) -> None:
        """Release worker pools (idempotent; serial executors are a no-op)."""


def _resolve_workers(requested: Optional[int], n_lanes: int) -> int:
    """Worker count: requested, else one per core, never more than lanes."""
    if requested is not None and requested <= 0:
        raise ConfigurationError(f"workers must be positive, got {requested}")
    limit = requested if requested is not None else (os.cpu_count() or 1)
    return max(1, min(int(limit), n_lanes))


def _device_dtype(device) -> np.dtype:
    """The dtype a device's ``infer`` runs under.

    Fleet devices pin their profile's compute dtype
    (``FleetDevice.serving_dtype``); in-process adapters serve under the
    ambient policy dtype at call time.
    """
    name = getattr(device, "serving_dtype", None)
    return resolve_dtype(name) if name is not None else default_dtype()


def _timed_infer(device, windows: np.ndarray, position: int) -> LaneResult:
    """Run one batch on a live device, capturing wall time and failure."""
    start = perf_seconds()
    try:
        outputs = device.infer(windows)
    except Exception as error:  # typed errors travel through the futures
        return LaneResult(position, None, 0.0, error)
    return LaneResult(position, outputs, perf_seconds() - start, None)


class SerialExecutor(Executor):
    """Inline execution on the simulated clock.

    Answers are bit-exact with serving each device directly
    (``benchmarks/bench_workers.py`` gates the equivalence).  The measured
    ``wall`` of each result is kept as an observation only: the scheduler
    times the simulated clock with
    :func:`~repro.serving.scheduler.service_seconds`."""

    name = "serial"
    clock = "simulated"
    concurrent = False

    def __init__(self, workers: Optional[int] = None) -> None:
        # Accepted for registry uniformity, but a pool size on the inline
        # executor is always a caller mistake — reject it loudly rather
        # than silently serving on one core.
        if workers is not None:
            raise ConfigurationError(
                "the serial executor runs batches inline; workers= requires "
                'executor="thread" or executor="process"'
            )

    def run(self, tasks: Sequence[LaneTask]) -> List[LaneResult]:
        return [
            _timed_infer(self._devices[task.position], task.windows, task.position)
            for task in tasks
        ]


class ThreadExecutor(Executor):
    """Shared-memory concurrency over a persistent thread pool.

    Lanes within one round run on pool threads; numpy's kernels release the
    GIL, so compute overlaps partially — full per-core speedup needs the
    :class:`ProcessExecutor`.  The global dtype policy is *not* thread-safe
    to mutate concurrently, so the round is grouped by each device's
    serving dtype and each group runs under one ambient ``precision``
    scope; the per-device ``precision`` contexts inside ``FleetDevice
    .serve`` then only ever rewrite the value already in force, which keeps
    heterogeneous-precision fleets deterministic.
    """

    name = "thread"
    clock = "wall"
    concurrent = True

    def __init__(self, workers: Optional[int] = None) -> None:
        self._requested = workers
        self._pool: Optional[_ThreadPool] = None
        self.n_workers = 0

    def bind(self, devices: Sequence) -> None:
        super().bind(devices)
        self.n_workers = _resolve_workers(self._requested, len(devices))

    def _ensure_pool(self) -> _ThreadPool:
        if self._pool is None:
            self._pool = _ThreadPool(
                max_workers=self.n_workers, thread_name_prefix="repro-serve"
            )
        return self._pool

    def run(self, tasks: Sequence[LaneTask]) -> List[LaneResult]:
        pool = self._ensure_pool()
        groups: Dict[np.dtype, List[LaneTask]] = {}
        for task in tasks:
            groups.setdefault(_device_dtype(self._devices[task.position]), []).append(task)
        results: List[LaneResult] = []
        for dtype, group in groups.items():
            with precision(dtype):
                futures = [
                    pool.submit(
                        _timed_infer, self._devices[task.position],
                        task.windows, task.position,
                    )
                    for task in group
                ]
                results.extend(future.result() for future in futures)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ---------------------------------------------------------------------- #
# process workers
# ---------------------------------------------------------------------- #
def _portable_error(error: BaseException) -> BaseException:
    """The error itself when picklable, else a typed stand-in."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return ServingError(f"{type(error).__name__}: {error}")


def _process_worker_main(worker_index, task_queue, result_queue):
    """Worker process loop: serve shipped learner states.

    Messages: ``("sync", position, state, metadata)`` rebuilds the lane's
    learner with :func:`~repro.core.persistence.pilote_from_state` under the
    shipped compute dtype and installs its
    :class:`~repro.edge.inference.InferenceEngine`; ``("run", task_id,
    position, windows)`` answers on the shared result queue as ``(task_id,
    position, outputs, wall, error)``; ``("crash",)`` kills the process
    without cleanup (the parent's worker-death path, exercised by tests);
    ``None`` shuts down cleanly.
    """
    engines: Dict[int, tuple] = {}  # lane -> (engine, compute dtype)
    while True:
        try:
            message = task_queue.get()
        except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
            break
        if message is None:
            break
        kind = message[0]
        if kind == "sync":
            _, position, state, metadata = message
            dtype = resolve_dtype(metadata["compute_dtype"])
            with precision(dtype):
                learner = pilote_from_state(state, metadata)
            engines[position] = (learner.inference_engine(), dtype)
            continue
        if kind == "crash":
            os._exit(1)
        _, task_id, position, windows = message
        try:
            if position not in engines:
                raise ExecutorError(
                    f"worker {worker_index} holds no learner state for "
                    f"lane {position}"
                )
            engine, dtype = engines[position]
            start = perf_seconds()
            with precision(dtype):
                outputs = engine.predict(windows)
            wall = perf_seconds() - start
        except Exception as error:
            result_queue.put((task_id, position, None, 0.0, _portable_error(error)))
        else:
            result_queue.put((task_id, position, outputs, wall, None))


class _Worker:
    """One pool member: the OS process plus its private task queue."""

    __slots__ = ("index", "process", "task_queue")

    def __init__(self, index, process, task_queue) -> None:
        self.index = index
        self.process = process
        self.task_queue = task_queue


class ProcessExecutor(Executor):
    """Persistent multi-process worker pool, one process per lane group.

    Lane ``i`` is pinned to worker ``i % workers`` so each worker keeps a
    warm rebuilt learner and :class:`~repro.edge.inference.InferenceEngine`
    per lane it owns.  Learner states are shipped lazily and re-shipped in
    full only when the lane's live engine, its learner, or the learner's
    ``PILOTE.state_version`` changes (a broadcast, an on-device increment,
    or a device/learner replacement — a fresh learner restarts its version
    counter, so identity is part of the staleness key), so steady-state
    rounds carry just the window payloads (``sync_stats()`` reports the
    bytes shipped and the number of syncs).  Every device behind the
    scheduler must expose an ``engine``
    (``FleetDevice``/``EdgeDevice`` do; ``serve(...)`` wires it for the
    in-process adapters) — a lane without one fails with a typed
    :class:`~repro.exceptions.ExecutorError`.

    A dead worker fails its in-flight batches with
    :class:`~repro.exceptions.WorkerDiedError` and is respawned with a
    fresh queue before the next round; lanes it owned re-sync their
    learner states automatically.
    """

    name = "process"
    clock = "wall"
    concurrent = True

    def __init__(self, workers: Optional[int] = None) -> None:
        self._requested = workers
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: List[_Worker] = []
        self._results = None
        # lane -> (engine, learner, state_version) last shipped.  Identity
        # matters, not just the version number: a redeploy or device
        # replacement installs a *fresh* learner whose counter restarts, so
        # an equal version from a different object must still re-ship.
        self._shipped: Dict[int, tuple] = {}
        self._task_counter = 0
        self.n_workers = 0
        # Shipping telemetry (survives close() so reports can read it after
        # the pool is released): bytes over the IPC queue and sync count.
        self.bytes_shipped = 0
        self.full_syncs = 0

    def bind(self, devices: Sequence) -> None:
        super().bind(devices)
        self.n_workers = _resolve_workers(self._requested, len(devices))

    # -- pool lifecycle ------------------------------------------------- #
    def _ensure_workers(self) -> None:
        if self._workers:
            return
        if self._results is None:
            self._results = self._context.Queue()
        for index in range(self.n_workers):
            self._spawn(index)

    def _spawn(self, index: int) -> None:
        task_queue = self._context.Queue()
        process = self._context.Process(
            target=_process_worker_main,
            args=(index, task_queue, self._results),
            daemon=True,
            name=f"repro-worker-{index}",
        )
        process.start()
        worker = _Worker(index, process, task_queue)
        if index < len(self._workers):
            self._workers[index] = worker
            # The replacement starts with empty caches: forget what was
            # shipped to its dead predecessor so the next round re-syncs.
            for position in list(self._shipped):
                if position % self.n_workers == index:
                    del self._shipped[position]
        else:
            self._workers.append(worker)

    def kill_worker(self, index: int, *, wait: bool = True) -> int:
        """Chaos hook: crash one pool worker (``os._exit`` in-process).

        With ``wait`` the call blocks until the process is gone, so the
        next round deterministically finds a dead worker (it is respawned
        before queueing and no batch is lost).  Without it the crash
        message sits behind whatever is already queued and lands mid-round:
        batches queued after it fail with the typed
        :class:`~repro.exceptions.WorkerDiedError` — the storm the chaos
        scenarios drive.  Returns the killed worker's pool index.
        """
        self._ensure_workers()
        worker = self._workers[index % self.n_workers]
        worker.task_queue.put(("crash",))
        if wait:
            worker.process.join(timeout=5.0)
        return worker.index

    def close(self) -> None:
        for worker in self._workers:
            try:
                worker.task_queue.put(None)
            except (ValueError, OSError):  # pragma: no cover - queue torn down
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        self._workers = []
        self._shipped = {}
        if self._results is not None:
            self._results.close()
            self._results = None

    # -- learner-state shipping --------------------------------------- #
    def _live_engine(self, position: int):
        device = self._devices[position]
        engine = getattr(device, "engine", None)
        if engine is None:
            raise ExecutorError(
                f"lane {position} (device "
                f"{getattr(device, 'device_id', '?')}) exposes no "
                "InferenceEngine; the process executor serves from shipped "
                "learner states"
            )
        return engine

    def _sync_lane(self, worker: _Worker, position: int) -> None:
        engine = self._live_engine(position)
        learner = engine.learner
        shipped = (engine, learner, learner.state_version)
        if self._shipped.get(position) == shipped:
            return
        dtype = _device_dtype(self._devices[position])
        state, metadata = pilote_state(learner)
        # Copies, without the support set (serving never reads it), and the
        # prototypes already in the dtype the worker serves under.
        state = {
            key: np.array(value, dtype=dtype) if key.startswith("prototypes/") else value
            for key, value in state.items()
            if not key.startswith("exemplars/")
        }
        metadata.update(
            state_version=learner.state_version,
            compute_dtype=str(dtype),
        )
        worker.task_queue.put(("sync", position, state, metadata))
        self.bytes_shipped += sum(value.nbytes for value in state.values())
        self.full_syncs += 1
        self._shipped[position] = shipped

    def sync_stats(self) -> Dict[str, int]:
        """Cumulative learner-state shipping telemetry (syncs and bytes)."""
        return {"bytes_shipped": self.bytes_shipped, "full_syncs": self.full_syncs}

    # -- execution ------------------------------------------------------ #
    def run(self, tasks: Sequence[LaneTask]) -> List[LaneResult]:
        self._ensure_workers()
        pending: Dict[int, LaneTask] = {}
        owners: Dict[int, _Worker] = {}
        results: List[LaneResult] = []
        for task in tasks:
            worker = self._workers[task.position % self.n_workers]
            if not worker.process.is_alive():
                # Died idle between rounds: respawn before queueing so the
                # round doesn't burn its tasks just to notice.
                self._spawn(worker.index)
                worker = self._workers[worker.index]
            try:
                self._sync_lane(worker, task.position)
            except Exception as error:
                # A lane whose state cannot ship (no engine, learner not
                # fitted, ...) fails its batch through the future,
                # like any other serving error — never a lost task, and
                # never an aborted round stranding already-queued lanes.
                results.append(LaneResult(task.position, None, 0.0, error))
                continue
            self._task_counter += 1
            task_id = self._task_counter
            pending[task_id] = task
            owners[task_id] = worker
            worker.task_queue.put(
                ("run", task_id, task.position, np.asarray(task.windows))
            )
        while pending:
            try:
                task_id, position, outputs, wall, error = self._results.get(
                    timeout=_POLL_SECONDS
                )
            except queue.Empty:
                self._reap_dead(pending, owners, results)
                continue
            if pending.pop(task_id, None) is None:
                # Late answer from a worker already declared dead for this
                # task — the future was failed once; never complete it twice.
                continue
            owners.pop(task_id, None)
            results.append(LaneResult(position, outputs, wall, error))
        return results

    def _reap_dead(self, pending, owners, results) -> None:
        """Fail tasks owned by dead workers; respawn their processes.

        Matching is by worker *identity*, not pool index: a slot whose
        occupant died and was already replaced mid-round may own tasks
        under both the dead object and its healthy replacement, and only
        the former's may be failed (or its slot respawned again).
        """
        dead = {
            id(worker): worker
            for worker in owners.values()
            if not worker.process.is_alive()
        }
        if not dead:
            return
        for task_id in [tid for tid, worker in owners.items() if id(worker) in dead]:
            task = pending.pop(task_id)
            worker = owners.pop(task_id)
            results.append(
                LaneResult(
                    task.position,
                    None,
                    0.0,
                    WorkerDiedError(
                        f"worker process {worker.index} (pid "
                        f"{worker.process.pid}) died before answering lane "
                        f"{task.position}"
                    ),
                )
            )
        for worker in dead.values():
            # Respawn only if the dead worker still occupies its slot — a
            # mid-round replacement must not be displaced (and orphaned).
            if self._workers[worker.index] is worker:
                self._spawn(worker.index)


#: CLI/config name → executor class.
EXECUTORS = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def make_executor(
    executor: Union[str, Executor, None], *, workers: Optional[int] = None
) -> Executor:
    """Resolve an executor instance from a name, an instance or ``None``.

    ``None`` means the default :class:`SerialExecutor` (inline, simulated
    clock — the historical behaviour).  ``workers`` sizes the pool of the
    concurrent executors (default: one per CPU core, capped at the lane
    count); it cannot be combined with an already-built instance.
    """
    if isinstance(executor, Executor):
        if workers is not None:
            raise ConfigurationError(
                "workers= cannot resize an already-built executor instance; "
                "pass the executor name instead"
            )
        return executor
    if executor is None:
        executor = SerialExecutor.name
    try:
        executor_class = EXECUTORS[executor]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown executor {executor!r}; expected one of {sorted(EXECUTORS)}"
        ) from None
    return executor_class(workers=workers)
