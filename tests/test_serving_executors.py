"""Tests for the executor seam: serial/thread/process batch execution.

The contract under test (ISSUE 5): FIFO/EDF scheduling, routing policies and
deadline accounting compose unchanged with every executor; on a seeded
workload the three executors produce identical predictions and identical
``RoutingReport`` outcome counters; a dying worker process surfaces as a
typed :class:`~repro.exceptions.ServingError` with no dropped or
double-answered futures; and learner state travels to worker processes in
the ``pilote_state`` format, re-shipped when ``PILOTE.state_version`` moves.
"""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.config import PiloteConfig
from repro.edge.transfer import package_for_edge
from repro.exceptions import (
    ConfigurationError,
    ExecutorError,
    ServingError,
    WorkerDiedError,
)
from repro.fleet import FleetCoordinator, TrafficGenerator, WorkloadSpec
from repro.server.simulation import make_serving_learner
from repro.serving import DeviceStats, RoutingReport
from repro.serving import (
    EXECUTORS,
    EventLoopScheduler,
    PredictRequest,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    serve,
)


@pytest.fixture(scope="module")
def package(pretrained_pilote):
    """The cloud broadcast shared by the executor tests (read-only)."""
    return package_for_edge(pretrained_pilote)


@pytest.fixture()
def fleet(package, tiny_config):
    """A three-device fleet freshly deployed from the shared package."""
    coordinator = FleetCoordinator(tiny_config, seed=0)
    coordinator.provision(3)
    coordinator.deploy(package)
    return coordinator


@pytest.fixture(scope="module")
def pool(run_scenario):
    """Feature rows used as request payloads."""
    return run_scenario.test.features


def _zipf_ticks(pool, seed=11, n_ticks=4):
    spec = WorkloadSpec(
        pattern="zipf", n_users=40, requests_per_tick=24, n_ticks=n_ticks,
        tick_seconds=1e-4,
    )
    return list(TrafficGenerator(pool, spec, seed=seed).ticks())


def _run_through(fleet, ticks, **serve_options):
    """Serve a tick stream; returns (concatenated predictions, report)."""
    with serve(fleet, routing="hash", seed=7, **serve_options) as client:
        futures = []
        for requests in ticks:
            futures.extend(client.submit_many(requests))
            client.drain()
        predictions = np.concatenate([f.result().class_ids for f in futures])
        return predictions, client.report()


class TestExecutorRegistry:
    def test_default_is_serial(self):
        assert isinstance(make_executor(None), SerialExecutor)

    def test_names_resolve(self):
        assert set(EXECUTORS) == {"serial", "thread", "process"}
        assert isinstance(make_executor("thread"), ThreadExecutor)
        assert isinstance(make_executor("process", workers=2), ProcessExecutor)

    def test_instances_pass_through(self):
        executor = ThreadExecutor(workers=2)
        assert make_executor(executor) is executor

    def test_unknown_name_is_typed_error(self):
        with pytest.raises(ConfigurationError):
            make_executor("asyncio")

    def test_workers_with_instance_rejected(self):
        with pytest.raises(ConfigurationError):
            make_executor(ThreadExecutor(), workers=2)

    def test_non_positive_workers_rejected(self, fleet):
        with pytest.raises(ConfigurationError):
            serve(fleet, executor="thread", workers=0).drain()

    def test_workers_with_serial_rejected(self, fleet):
        # A pool size on the inline executor (including the default) is a
        # caller mistake, never silently ignored.
        with pytest.raises(ConfigurationError):
            serve(fleet, workers=4)
        with pytest.raises(ConfigurationError):
            SerialExecutor(workers=4)

    def test_fleet_sim_rejects_deadlines_on_wall_clock_executors(self):
        from repro.fleet import simulation as fleet_simulation

        # Simulated-clock deadlines cannot be judged on the measured wall
        # clock; the validation fires before any training starts.
        with pytest.raises(ConfigurationError, match="serial"):
            fleet_simulation.run(deadline_ms=50.0, executor="process")


class TestExecutorEquivalence:
    def test_identical_predictions_and_counters_on_zipf(self, fleet, pool):
        """Serial, thread and process executors answer bit-identically."""
        ticks = _zipf_ticks(pool)
        outcomes = {}
        for name in ("serial", "thread", "process"):
            workers = None if name == "serial" else 2
            predictions, report = _run_through(
                fleet, ticks, executor=name, workers=workers
            )
            outcomes[name] = (predictions, report)
        base_predictions, base_report = outcomes["serial"]
        assert base_report.clock == "simulated"
        for name in ("thread", "process"):
            predictions, report = outcomes[name]
            assert np.array_equal(predictions, base_predictions), name
            assert report.clock == "wall", name
            # Outcome counters are timing-independent and must match exactly.
            assert report.total_requests == base_report.total_requests
            assert report.total_windows == base_report.total_windows
            assert report.total_expired == base_report.total_expired
            assert report.total_rejected == base_report.total_rejected
            assert report.total_failed == base_report.total_failed
            assert report.resolved_requests == base_report.resolved_requests
            for device_id, stats in base_report.per_device.items():
                other = report.per_device[device_id]
                assert other.requests == stats.requests, name
                assert other.windows == stats.windows, name
                assert other.batches == stats.batches, name

    def test_single_lane_layers_equivalent(self, pretrained_pilote, pool):
        """serve(learner) answers identically through every executor."""
        base = serve(pretrained_pilote).predict(pool[:48])
        for name in ("thread", "process"):
            with serve(pretrained_pilote, executor=name) as client:
                assert np.array_equal(client.predict(pool[:48]), base), name

    def test_edf_and_deadlines_compose_with_every_executor(self, fleet, pool):
        """Queue order and deadline accounting work unchanged off-process."""
        spec = WorkloadSpec(
            pattern="zipf", n_users=40, requests_per_tick=32, n_ticks=3,
            tick_seconds=1e-5, deadline_seconds=5e-3,
            deadline_multipliers=(0.5, 1.0, 4.0),
        )
        for name in EXECUTORS:
            ticks = list(TrafficGenerator(pool, spec, seed=3).ticks())
            submitted = sum(len(t) for t in ticks)
            with serve(
                fleet, routing="hash", scheduling="edf", seed=7,
                executor=name, workers=None if name == "serial" else 2,
            ) as client:
                futures = []
                for requests in ticks:
                    futures.extend(client.submit_many(requests))
                client.drain()
                assert all(future.done() for future in futures), name
                report = client.report()
            # The invariant web: every submitted request resolved exactly one
            # way, and served totals match the per-device rows.
            assert report.total_requests == sum(
                s.requests for s in report.per_device.values()
            ), name
            assert (
                report.total_requests + report.total_expired + report.total_failed
                == submitted
            ), name
            assert report.resolved_requests == submitted, name

    def test_process_resyncs_snapshot_after_increment(self, fleet, pool, run_scenario):
        """A state_version bump mid-stream re-ships the lane snapshot."""
        with serve(fleet, routing="hash", seed=7, executor="process", workers=2) as client:
            before = client.predict(pool[:32])
            # On-device increment: the lane's learner moves past the shipped
            # snapshot version, so the next round must re-sync.
            for device in fleet.devices:
                device.learn_new_activity(run_scenario.new_train)
            after = client.predict(pool[:32])
        serial = serve(fleet, routing="hash", seed=7)
        expected = serial.predict(pool[:32])
        assert np.array_equal(after, expected)
        # The increment learned a new class, so predictions genuinely moved
        # (guards against the worker serving the stale snapshot).
        new_classes = set(run_scenario.new_classes)
        assert set(np.unique(expected)) & new_classes or not np.array_equal(
            before, after
        )


class TestWorkerDeath:
    def _requests(self, pool, count):
        return [
            PredictRequest(user_id=user, features=pool[user:user + 2])
            for user in range(count)
        ]

    def test_dead_worker_fails_typed_and_respawns(self, fleet, pool):
        scheduler = EventLoopScheduler(
            fleet.devices, "hash", seed=7, executor="process", workers=3
        )
        with scheduler:
            requests = self._requests(pool, 6)
            # Pin two requests per lane so every worker owns traffic.
            assignment = np.array([0, 1, 2, 0, 1, 2])
            futures = scheduler.submit_assigned(requests, assignment)
            executor = scheduler.executor
            executor._ensure_workers()
            # Queue the crash right ahead of lane 0's batch, after the
            # round's liveness check: a crash queued before the round can
            # kill the worker while it is still idle, and an idle death is
            # respawned before queueing, so the batch would be served.
            doomed = executor._workers[0].task_queue
            put = doomed.put

            def put_behind_crash(message, *args, **kwargs):
                if message[0] == "run":
                    doomed.put = put
                    put(("crash",))
                return put(message, *args, **kwargs)

            doomed.put = put_behind_crash
            scheduler.drain()

            assert all(future.done() for future in futures)
            failed = [f for f in futures if f.exception() is not None]
            served = [f for f in futures if f.exception() is None]
            # Lane 0's batch died with the worker; the other lanes answered.
            assert len(failed) == 2 and len(served) == 4
            for future in failed:
                error = future.exception()
                assert isinstance(error, WorkerDiedError)
                assert isinstance(error, ServingError)
                with pytest.raises(WorkerDiedError):
                    future.result()
            report = scheduler.report()
            assert report.total_failed == 2
            assert report.total_requests == 4
            assert report.total_requests == sum(
                s.requests for s in report.per_device.values()
            )
            assert scheduler.pending_requests == 0

            # The pool respawned the dead worker (fresh queue, re-synced
            # snapshot): the same lanes serve again.
            retry = scheduler.submit_assigned(self._requests(pool, 3), np.arange(3))
            scheduler.drain()
            assert all(f.exception() is None for f in retry)

    def test_lane_without_engine_is_typed_error(self, pool):
        class Opaque:
            device_id = 0
            profile = type("P", (), {"name": "opaque", "relative_compute": 1.0})()

            def infer(self, windows):  # pragma: no cover - never reached
                return np.zeros(windows.shape[0], dtype=np.int64)

        scheduler = EventLoopScheduler(
            [Opaque()], executor="process", workers=1
        )
        with scheduler:
            future = scheduler.submit(PredictRequest(user_id=0, features=pool[:2]))
            scheduler.drain()
            assert isinstance(future.exception(), ExecutorError)
            # Even an all-failed run reports the executor's clock: rows are
            # labelled at creation, not on first successful completion.
            assert scheduler.report().clock == "wall"

    def test_unfitted_engine_fails_future_not_drain(self, tiny_config, pool):
        """Snapshot failures travel through the future; drain() survives
        and no popped batch is stranded unresolvable."""
        from repro.core.pilote import PILOTE
        from repro.exceptions import NotFittedError

        learner = PILOTE(tiny_config)  # never trained
        with serve(learner, executor="process", workers=1) as client:
            future = client.submit(PredictRequest(user_id=0, features=pool[:2]))
            client.drain()
            assert future.done()
            assert isinstance(future.exception(), NotFittedError)
            assert client.pending_requests == 0
            assert client.report().total_failed == 1


#: Config of the training-free serving learner: 3 classes of 30 rows, 20
#: features (``make_serving_learner(CHEAP_CONFIG, n_classes=3, per_class=30,
#: n_features=20)``).
CHEAP_CONFIG = PiloteConfig(hidden_dims=(32, 16), embedding_dim=8, cache_size=100, seed=0)


class TestSnapshotStaleness:
    def test_replaced_learner_reships_despite_equal_version(self):
        """Staleness is keyed on identity, not just the version number."""
        from repro.serving.client import LocalServingDevice

        learner_a = make_serving_learner(CHEAP_CONFIG, n_classes=3, per_class=30, n_features=20)
        learner_b = make_serving_learner(CHEAP_CONFIG, n_classes=3, per_class=30, n_features=20, seed=1)
        assert learner_a.state_version == learner_b.state_version
        engine_a = learner_a.inference_engine()
        engine_b = learner_b.inference_engine()
        pool = np.random.default_rng(9).normal(size=(32, 20))
        expected_a = engine_a.predict(pool)
        expected_b = engine_b.predict(pool)
        assert not np.array_equal(expected_a, expected_b)

        device = LocalServingDevice(engine_a.predict, engine=engine_a)
        scheduler = EventLoopScheduler([device], executor="process", workers=1)
        with scheduler:
            first = scheduler.submit(PredictRequest(user_id=0, features=pool))
            scheduler.drain()
            assert np.array_equal(first.result().class_ids, expected_a)
            # Swap in a different learner at the *same* state_version; the
            # next round must re-ship rather than serve the stale snapshot.
            scheduler.replace_device(
                0, LocalServingDevice(engine_b.predict, engine=engine_b)
            )
            second = scheduler.submit(PredictRequest(user_id=0, features=pool))
            scheduler.drain()
            assert np.array_equal(second.result().class_ids, expected_b)


class TestWallClockAccounting:
    def test_makespan_includes_worker_queueing(self):
        """Lanes sharing one worker must not report fully-parallel time."""
        from repro.serving.client import LocalServingDevice

        learner = make_serving_learner(CHEAP_CONFIG, n_classes=3, per_class=30, n_features=20)
        engine = learner.inference_engine()
        pool = np.random.default_rng(9).normal(size=(128, 20))
        devices = [
            LocalServingDevice(engine.predict, engine=engine, device_id=i)
            for i in range(3)
        ]
        scheduler = EventLoopScheduler(devices, executor="process", workers=1)
        with scheduler:
            requests = [
                PredictRequest(user_id=u, features=pool) for u in range(6)
            ]
            scheduler.submit_assigned(requests, np.array([0, 1, 2, 0, 1, 2]))
            scheduler.drain()
            report = scheduler.report()
        # One worker serializes all three lanes, so the measured makespan is
        # at least the total in-worker compute — a per-lane-parallel clock
        # would report roughly a third of it.
        assert report.clock == "wall"
        assert report.makespan_seconds >= report.engine_wall_seconds * 0.95

    def test_reentrant_drain_keeps_wall_clock_monotone(self):
        """A done-callback re-entering drain() mid-round must not observe —
        or cause — a lane clock that later moves backwards: the concurrent
        drain books the whole round before firing any completion."""
        from repro.serving.client import LocalServingDevice

        learner = make_serving_learner(CHEAP_CONFIG, n_classes=3, per_class=30, n_features=20)
        engine = learner.inference_engine()
        pool = np.random.default_rng(9).normal(size=(48, 20))
        devices = [
            LocalServingDevice(engine.predict, engine=engine, device_id=i)
            for i in range(2)
        ]
        scheduler = EventLoopScheduler(devices, executor="thread", workers=2)
        with scheduler:
            chained = []
            snapshots = []

            def chain(_future):
                # Submit a follow-up onto the *other* lane and re-enter the
                # drain while the outer round's results are being applied;
                # snapshot the lane clocks the inner drain leaves behind so
                # the outer drain can be caught rewinding them.
                chained.extend(
                    scheduler.submit_assigned(
                        [PredictRequest(user_id=9, features=pool)], np.array([1])
                    )
                )
                scheduler.drain()
                snapshots.append(scheduler._available_at.copy())

            first = scheduler.submit_assigned(
                [PredictRequest(user_id=0, features=pool)], np.array([0])
            )[0]
            second = scheduler.submit_assigned(
                [PredictRequest(user_id=1, features=pool)], np.array([1])
            )[0]
            first.add_done_callback(chain)
            scheduler.drain()

            assert first.done() and second.done() and chained[0].done()
            assert chained[0].exception() is None
            assert scheduler.pending_requests == 0
            # The lane clocks never rewound past what the callback observed.
            assert (scheduler._available_at >= snapshots[0] - 1e-12).all()
            assert scheduler.report().total_requests == 3


class TestEngineWarm:
    def test_warm_builds_caches_once(self, pilote_copy):
        from repro.edge.inference import InferenceEngine

        engine = InferenceEngine(pilote_copy)
        assert engine.cache_refreshes == 0
        engine.warm()
        assert engine.cache_refreshes == 1
        assert pilote_copy.classifier.classes_
        engine.warm()  # idempotent
        assert engine.cache_refreshes == 1


class TestSloResolvedRequests:
    """Satellite: slo_attainment must stay consistent past the latency cap."""

    def test_trimmed_history_no_longer_overweights_expiries(self):
        # 100 requests served (all within target), but the per-device window
        # only kept 10 samples; 100 more expired.  The consistent ratio is
        # 100 / 200 = 0.5 — the old window-mixing formula said 10/110.
        stats = DeviceStats(device_id=0, profile="x", requests=100)
        stats.latencies = [1e-3] * 10
        report = RoutingReport(
            per_device={0: stats},
            total_requests=100,
            total_expired=100,
        )
        assert report.slo_attainment(1.0) == pytest.approx(0.5)

    def test_untrimmed_matches_exact_accounting(self):
        stats = DeviceStats(device_id=0, profile="x", requests=4)
        stats.latencies = [1e-3, 1e-3, 2.0, 2.0]
        report = RoutingReport(
            per_device={0: stats},
            total_requests=4,
            total_expired=1,
            total_failed=1,
        )
        # 2 of 4 sampled within target, scaled to 4 served, over 6 resolved.
        assert report.slo_attainment(1.0) == pytest.approx(2 / 6)

    def test_legacy_report_without_history_stays_vacuous(self):
        stats = DeviceStats(device_id=0, profile="x", requests=8)
        report = RoutingReport(per_device={0: stats}, total_requests=8)
        assert report.slo_attainment(1.0) == 1.0


class TestCliFlags:
    def test_executor_flags_parse(self):
        parser = build_parser()
        arguments = parser.parse_args(
            ["fleet-sim", "--executor", "process", "--workers", "2"]
        )
        assert arguments.executor == "process"
        assert arguments.workers == 2

    def test_unknown_executor_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fleet-sim", "--executor", "gpu"])

    def test_incoherent_combinations_fail_at_the_parser(self, capsys):
        from repro.cli import main

        # --workers without a concurrent executor, and --deadline-ms with
        # one, must die before any dataset/fleet setup runs.
        with pytest.raises(SystemExit):
            main(["fleet-sim", "--workers", "2"])
        assert "--executor thread" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["fleet-sim", "--deadline-ms", "50", "--executor", "process"])
        assert "serial executor" in capsys.readouterr().err
