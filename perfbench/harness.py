"""The PILOTE benchmark: one seeded deployment, three paths through it.

Every workload stands up the same :class:`Deployment`: the
quickstart scenario (five synthetic activities, ``Run`` held out) is
generated, a cloud learner is pretrained and packaged, an edge learner
learns the held-out activity, and the result is deployed to a four-device
fleet.  The fleet is served twice: in process (serial executor) and behind a
loopback network front door (process executor, one worker) hosted on the
deployment's own event loop.  Set-up ends with a check through both: an
update and a short open-loop burst of 8-window requests over the wire (wire,
bridge, pump thread and executor IPC), then one request per device in
process — so every layer runs in every workload.

The workloads then drive different paths through the deployment in
*blocks*.  A block is one model update, the first answer served after it,
and a run of reads:

* ``increment`` — a fresh edge learner from the package learns the new
  activity (``learn_new_classes``), then answers the test set through
  ``serve(learner)`` in 8-window requests.  Training is ~98% of the work.
* ``serve-small`` — ``refine_prototype`` on one device, then ticks of a
  seeded Zipf stream (8 requests of 1-2 windows each) through the in-process
  fleet client: lane batches of 1-8 rows, where per-call overhead dominates.

Every answer is checked against the serving device's own learner at the
state it was served from; a wrong answer, or a request that fails or is
refused, is a failed operation.  A block's inputs are made before and its
checks run after the timed part, each in a ``bench.*`` span that the traced
run does not count as the program's work.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data import Activity, build_incremental_scenario, make_feature_dataset
from repro.edge.transfer import package_for_edge
from repro.exceptions import ServingError
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.traffic import TrafficGenerator, WorkloadSpec
from repro.server.client import AsyncConnection
from repro.server.server import ServingServer
from repro.server.simulation import SIM_NODE
from repro.serving import PredictRequest, serve
from repro.utils.rng import resolve_rng

from perfbench.tracing import harness

ROOT = Path(__file__).resolve().parent.parent

#: The quickstart's seed: the corpus, the learners and the fleet are the same
#: on every run, so accuracy and training work do not vary with the workload
#: seed.  The workload seed drives what the system is asked: the order of the
#: served test windows, the Zipf request streams and the rows each update
#: folds in.
CORPUS_SEED = 42
N_DEVICES = 4
N_USERS = 256
#: Served answers may differ from the reference only where two prototypes
#: are this close (relative distance): batch shape can change float32
#: rounding, and rounding can flip an exact near-tie.
TIE_TOLERANCE = 1e-4
#: Open-loop rate of the set-up check over the wire, frozen at about a fifth
#: of the measured closed-loop capacity (~2.1-2.6k req/s with the process
#: executor on 2 cores).
NET_RATE_RPS = 400.0
NET_WINDOWS = 8
SMALL_REQUESTS_PER_TICK = 8
TEST_REQUEST_WINDOWS = 8
#: Reads per window of the p50 and throughput timings: an eighth of a
#: serve-small block (25 ticks, about 25 ms); an increment block's 46 reads
#: are one window.  Short windows find the host's calm spells more often.
READ_WINDOW = 25


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run (the tests use a tiny one)."""

    samples_per_class: int = 250
    small_ticks: int = 200          # serve-small ticks per block
    check_requests: int = 32        # set-up check through the front door
    trace_blocks: Dict[str, int] = field(
        default_factory=lambda: {"increment": 5, "serve-small": 15}
    )


DEFAULT_SCALE = Scale()


clock = time.perf_counter


def settle(future):
    """The future's response, or the :class:`ServingError` it failed with."""
    try:
        return future.result()
    except ServingError as exc:
        return exc


@dataclass
class Samples:
    """Everything one run measured, plus its output checks."""

    update_s: List[float] = field(default_factory=list)
    #: Each increment's wall time split at its training epochs: the time
    #: outside the epochs, then every epoch's (``TrainingHistory.epoch_seconds``).
    update_pieces: List[List[float]] = field(default_factory=list)
    first_answer_ms: List[float] = field(default_factory=list)
    latency_ms: List[float] = field(default_factory=list)
    #: The p50 of each window of a block's read latencies (see :meth:`reads`).
    window_p50_ms: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    #: Requests answered per second of wall time: per increment block's
    #: serving, per window of serve-small ticks.
    window_rps: List[float] = field(default_factory=list)
    sent: int = 0
    answered: int = 0
    failed: int = 0
    updates: int = 0
    failures: List[str] = field(default_factory=list)
    correct_by_group: Dict[str, List[int]] = field(
        default_factory=lambda: {"old": [0, 0], "new": [0, 0]}
    )
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    increment_accuracy: Optional[float] = None
    footprint_bytes: int = 0
    peak_bytes: List[int] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def answers(self, outcomes: list, what: str) -> List[Tuple[int, object]]:
        """Count sent requests by outcome (see :func:`settle`).

        Returns ``(position, response)`` of each answered request.  A failed
        or refused request is a failed operation.
        """
        answered = []
        self.sent += len(outcomes)
        for position, outcome in enumerate(outcomes):
            if isinstance(outcome, ServingError):
                self.failed += 1
                self.fail(f"{what}: request {position} failed: {outcome!r}")
            else:
                self.answered += 1
                answered.append((position, outcome))
        return answered

    @contextmanager
    def allocation(self):
        """While tracemalloc traces, record the operation's transient peak.

        Wraps the program's own operations only, so the harness's
        bookkeeping and answer checks never count.
        """
        if not tracemalloc.is_tracing():
            yield
            return
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            self.peak_bytes.append(tracemalloc.get_traced_memory()[1] - base)

    def reads(self, latency_ms: List[float]) -> None:
        """Record the read latencies of one block, and the p50 of each run of
        at least :data:`READ_WINDOW` of them (the whole block if shorter)."""
        self.latency_ms.extend(latency_ms)
        windows = np.array_split(np.asarray(latency_ms),
                                 max(1, len(latency_ms) // READ_WINDOW))
        self.window_p50_ms.extend(float(np.median(window)) for window in windows)

    def accuracy(self, group: str) -> float:
        correct, total = self.correct_by_group[group]
        return correct / total if total else 0.0


class Deployment:
    """The deployed system every workload runs against (see module doc)."""

    def __init__(self, seed: int, scale: Scale = DEFAULT_SCALE) -> None:
        self.scale = scale
        dataset = make_feature_dataset(
            samples_per_class=scale.samples_per_class, seed=CORPUS_SEED
        )
        self.scenario = scenario = build_incremental_scenario(
            dataset, [Activity.RUN], rng=CORPUS_SEED
        )
        self.config = PiloteConfig.edge_lightweight(seed=CORPUS_SEED)
        cloud = PILOTE(self.config)
        cloud.pretrain(scenario.old_train, scenario.old_validation,
                       exemplars_per_class=100)
        self.package = package_for_edge(cloud)
        edge = self.package.instantiate_learner(self.config, seed=CORPUS_SEED)
        edge.learn_new_classes(scenario.new_train, scenario.new_validation)

        self.fleet = FleetCoordinator(self.config, profiles=(SIM_NODE,),
                                      seed=CORPUS_SEED)
        self.fleet.provision(N_DEVICES)
        self.fleet.deploy(package_for_edge(edge))
        for device in self.fleet.devices:
            device.engine.warm()
        self.small = serve(self.fleet, routing="hash", seed=CORPUS_SEED)
        lanes = self.small.scheduler.policy.assign_batch(
            [None] * N_USERS, np.arange(N_USERS), self.small.scheduler
        )
        self.user_for_lane = [int(np.flatnonzero(lanes == lane)[0])
                              for lane in range(N_DEVICES)]
        self.lane_of_device = {
            device.device_id: lane for lane, device in enumerate(self.fleet.devices)
        }

        self.refine_rows = {
            int(c): np.concatenate([
                part.features[part.labels == c]
                for part in (scenario.old_train, scenario.new_train)
            ])
            for c in scenario.old_classes + scenario.new_classes
        }
        self.new_classes = set(int(c) for c in scenario.new_classes)
        stream = resolve_rng(seed)
        order = stream.permutation(scenario.test.n_samples)
        windows = range(0, order.size, TEST_REQUEST_WINDOWS)
        self.test_requests = [
            PredictRequest(user_id=0, features=scenario.test.features[
                order[start:start + TEST_REQUEST_WINDOWS]
            ])
            for start in windows
        ]
        self.test_labels = [
            scenario.test.labels[order[start:start + TEST_REQUEST_WINDOWS]]
            for start in windows
        ]
        self.update_offset = int(stream.integers(0, 1 << 16))
        small_seed, sizes_seed, net_seed = stream.integers(0, 1 << 32, size=3)
        index_pool = np.arange(scenario.test.n_samples, dtype=np.float64)[:, None]
        self.small_traffic = TrafficGenerator(index_pool, WorkloadSpec(
            pattern="zipf", n_users=N_USERS,
            requests_per_tick=SMALL_REQUESTS_PER_TICK, windows_per_request=2,
        ), seed=int(small_seed))
        self.small_sizes = resolve_rng(int(sizes_seed))
        self.net_traffic = TrafficGenerator(index_pool, WorkloadSpec(
            pattern="zipf", n_users=N_USERS,
            requests_per_tick=scale.check_requests, windows_per_request=NET_WINDOWS,
        ), seed=int(net_seed))
        self.updates = 0
        self.small_ticks = 0

        self.loop = asyncio.new_event_loop()
        self.server = ServingServer(serve(
            self.fleet, routing="hash", seed=CORPUS_SEED, executor="process",
            workers=1,
        ))
        host, port = self.loop.run_until_complete(self.server.start())
        connections = min(2, os.cpu_count() or 1)
        self.connections = [
            self.loop.run_until_complete(AsyncConnection.open(host, port))
            for _ in range(connections)
        ]
        self.check = Samples()
        self.loop.run_until_complete(self.wire_check(self.check))
        rows = self.probe_rows()
        pending = [
            self.small.submit(PredictRequest(user_id=user, features=rows))
            for user in self.user_for_lane
        ]
        self.small.drain()
        outcomes = [settle(future) for future in pending]
        with harness("bench.check"):
            self.verify_lanes(self.check, {
                lane: [(rows, response.class_ids)]
                for lane, response in self.check.answers(outcomes, "in-process check")
            }, "in-process check")

    def close(self) -> None:
        for connection in self.connections:
            self.loop.run_until_complete(connection.close())
        self.loop.run_until_complete(self.server.stop())
        self.small.close()
        self.loop.close()

    def sync_bytes(self) -> int:
        return int(self.server.bridge.client.sync_stats()["bytes_shipped"])

    # -- shared pieces --------------------------------------------------- #
    def labelled(self, samples: Samples, labels: np.ndarray,
                 class_ids: np.ndarray) -> None:
        for label, served in zip(labels.tolist(), class_ids.tolist()):
            group = "new" if label in self.new_classes else "old"
            samples.correct_by_group[group][0] += int(label == served)
            samples.correct_by_group[group][1] += 1

    def verify(self, samples: Samples, learner: PILOTE, rows: np.ndarray,
               served: np.ndarray, what: str) -> None:
        """Check served class ids against ``learner.predict`` on the rows.

        A mismatch passes only at an exact near-tie between the served and
        the reference class.  The digest records the reference answer in
        that case, so traced and untraced runs compare equal.
        """
        expected = learner.predict(rows)
        canonical = np.asarray(served, dtype=np.int64).copy()
        differ = np.flatnonzero(expected != canonical)
        if differ.size:
            classifier = learner.classifier
            classes = list(classifier.classes_)
            distances = np.asarray(
                learner.embed(rows[differ]), dtype=np.float64
            )
            prototypes = np.asarray(classifier.prototype_matrix(), dtype=np.float64)
            gaps = np.linalg.norm(distances[:, None, :] - prototypes[None], axis=2)
            for row, index in enumerate(differ):
                best = gaps[row, classes.index(int(expected[index]))]
                got = (gaps[row, classes.index(int(canonical[index]))]
                       if int(canonical[index]) in classes else np.inf)
                if abs(got - best) > TIE_TOLERANCE * max(1.0, best):
                    samples.fail(f"{what}: window {index} served class "
                                 f"{int(canonical[index])}, expected "
                                 f"{int(expected[index])}")
                canonical[index] = expected[index]
        samples.digest.update(canonical.tobytes())

    def refine(self, samples: Samples) -> int:
        """One ``refine_prototype`` on the next device; returns its lane."""
        lane = self.updates % N_DEVICES
        classes = sorted(self.refine_rows)
        class_id = classes[(self.updates // N_DEVICES) % len(classes)]
        pool = self.refine_rows[class_id]
        start = (4 * (self.updates + self.update_offset)) % (pool.shape[0] - 4)
        device = self.fleet.devices[lane]
        with device.edge.precision(), samples.allocation():
            began = clock()
            device.learner.refine_prototype(class_id, pool[start:start + 4])
            samples.update_s.append(clock() - began)
        self.updates += 1
        samples.updates += 1
        return lane

    def next_tick(self) -> Tuple[List[PredictRequest], List[np.ndarray]]:
        """The next serve-small tick: its requests and their rows' labels."""
        tick = self.small_traffic.tick(self.small_ticks)
        self.small_ticks += 1
        sizes = self.small_sizes.integers(1, 3, size=len(tick))
        test = self.scenario.test
        batch, labels = [], []
        for request, size in zip(tick, sizes):
            index = request.features[:size, 0].astype(np.int64)
            batch.append(PredictRequest(user_id=request.user_id,
                                        features=test.features[index]))
            labels.append(test.labels[index])
        return batch, labels

    def probe_rows(self) -> np.ndarray:
        test = self.scenario.test.features
        start = (2 * (self.updates + self.update_offset)) % (test.shape[0] - 2)
        return test[start:start + 2]

    def verify_lanes(self, samples: Samples, served: Dict[int, list],
                     what: str) -> None:
        """Verify every answer of a block, grouped by serving device."""
        for lane, answers in sorted(served.items()):
            device = self.fleet.devices[lane]
            rows = np.concatenate([rows for rows, _ in answers])
            class_ids = np.concatenate([ids for _, ids in answers])
            with device.edge.precision():
                self.verify(samples, device.learner, rows, class_ids,
                            f"{what} device {device.device_id}")

    # -- the front door ---------------------------------------------------- #
    async def wire_check(self, samples: Samples) -> None:
        """An update + its first answer, then an open-loop burst over the wire."""
        loop = asyncio.get_running_loop()
        connections = self.connections

        async def ask(connection: AsyncConnection, user_id: int, rows: np.ndarray):
            try:
                return await connection.predict(user_id, rows)
            except ServingError as exc:
                return exc

        lane = self.refine(samples)
        probe_rows = self.probe_rows().astype(np.float32)
        probe = await ask(connections[0], self.user_for_lane[lane], probe_rows)

        with harness("bench.load"):
            features = self.scenario.test.features
            requests = [
                (request.user_id,
                 features[request.features[:, 0].astype(np.int64)].astype(np.float32))
                for request in self.net_traffic.tick(0)
            ]
        outcomes: list = [None] * len(requests)

        async def one(position: int, due: float) -> None:
            samples.lateness_ms.append((loop.time() - due) * 1e3)
            user_id, rows = requests[position]
            outcomes[position] = await ask(
                connections[position % len(connections)], user_id, rows
            )

        start = loop.time() + 1e-3
        tasks = []
        for position in range(len(requests)):
            due = start + position / NET_RATE_RPS
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(one(position, due)))
        await asyncio.gather(*tasks)

        with harness("bench.check"):
            lane_of_device = self.lane_of_device
            served: Dict[int, list] = {}
            for _, response in samples.answers([probe], "wire probe"):
                if lane_of_device.get(response.device_id) != lane:
                    samples.fail(f"probe for lane {lane} answered by device "
                                 f"{response.device_id}")
                else:
                    served.setdefault(lane, []).append(
                        (probe_rows, response.class_ids)
                    )
            settled = [(rows, outcome) for (_, rows), outcome
                       in zip(requests, outcomes) if outcome is not None]
            if len(settled) != len(requests):
                samples.fail(f"wire: {len(requests)} sent but only "
                             f"{len(settled)} answered or failed")
            for position, response in samples.answers(
                    [outcome for _, outcome in settled], "wire"):
                lane = lane_of_device.get(response.device_id)
                if lane is None:
                    samples.fail(f"answer from unknown device {response.device_id}")
                    continue
                served.setdefault(lane, []).append(
                    (settled[position][0], response.class_ids)
                )
            self.verify_lanes(samples, served, "wire check")


# ---------------------------------------------------------------------- #
# workloads: one block each
# ---------------------------------------------------------------------- #
def increment_block(deployment: Deployment, samples: Samples) -> None:
    """A fresh edge learner learns the new activity, then serves the test set."""
    scenario = deployment.scenario
    requests = deployment.test_requests
    learner = deployment.package.instantiate_learner(
        deployment.config, seed=CORPUS_SEED
    )
    with samples.allocation():
        began = clock()
        history = learner.learn_new_classes(scenario.new_train,
                                            scenario.new_validation)
        samples.update_s.append(clock() - began)
    epochs = list(getattr(history, "epoch_seconds", []))
    samples.update_pieces.append([samples.update_s[-1] - sum(epochs)] + epochs)
    samples.updates += 1
    outcomes, latency_ms = [], []
    serving = clock()
    with serve(learner) as client:
        for request in requests:
            began = clock()
            pending = client.submit(request)
            client.drain()
            outcomes.append(settle(pending))
            latency_ms.append((clock() - began) * 1e3)
    samples.window_rps.append(len(requests) / (clock() - serving))
    samples.first_answer_ms.append(latency_ms[0])
    samples.reads(latency_ms[1:])

    with harness("bench.check"):
        answered = samples.answers(outcomes, "increment")
        if not answered:
            return
        rows = np.concatenate([requests[i].features for i, _ in answered])
        served = np.concatenate([response.class_ids for _, response in answered])
        labels = np.concatenate([deployment.test_labels[i] for i, _ in answered])
        deployment.verify(samples, learner, rows, served, "increment")
        deployment.labelled(samples, labels, served)
        accuracy = float(np.mean(served == labels))
        if samples.increment_accuracy is None:
            samples.increment_accuracy = accuracy
        elif accuracy != samples.increment_accuracy:
            samples.fail(f"increment accuracy {accuracy} differs from the "
                         f"first repeat's {samples.increment_accuracy}")
        samples.footprint_bytes = learner.memory_footprint()["total_bytes"]


def small_block(deployment: Deployment, samples: Samples) -> None:
    """An update on one device, its first answer, then small-batch ticks."""
    client = deployment.small
    with harness("bench.load"):
        rows = deployment.probe_rows()
        ticks = [deployment.next_tick() for _ in range(deployment.scale.small_ticks)]

    lane = deployment.refine(samples)
    began = clock()
    probe = client.submit(PredictRequest(
        user_id=deployment.user_for_lane[lane], features=rows
    ))
    client.drain()
    probe = settle(probe)
    samples.first_answer_ms.append((clock() - began) * 1e3)
    outcomes, latency_ms = [], []
    window, sent = clock(), 0
    for tick, (batch, _) in enumerate(ticks, 1):
        began = clock()
        futures = client.submit_many(batch)
        client.drain()
        outcomes.append([settle(future) for future in futures])
        now = clock()
        latency_ms.append((now - began) * 1e3)
        sent += len(batch)
        if tick % READ_WINDOW == 0 or tick == len(ticks):
            samples.window_rps.append(sent / (now - window))
            window, sent = now, 0
    samples.reads(latency_ms)

    with harness("bench.check"):
        device = deployment.fleet.devices[lane]
        lane_of_device = deployment.lane_of_device
        served: Dict[int, list] = {}
        for _, response in samples.answers([probe], "serve-small probe"):
            if response.device_id != device.device_id:
                samples.fail(f"probe for lane {lane} answered by device "
                             f"{response.device_id}")
            else:
                served.setdefault(lane, []).append((rows, response.class_ids))
        for (batch, labels), results in zip(ticks, outcomes):
            for position, response in samples.answers(results, "serve-small"):
                served.setdefault(lane_of_device[response.device_id], []).append(
                    (batch[position].features, response.class_ids)
                )
                deployment.labelled(samples, labels[position], response.class_ids)
        deployment.verify_lanes(samples, served, "serve-small")
        samples.footprint_bytes = device.learner.memory_footprint()["total_bytes"]


WORKLOADS = {
    "increment": increment_block,
    "serve-small": small_block,
}
