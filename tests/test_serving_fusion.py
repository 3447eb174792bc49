"""Fused serving: lanes that share weights embed their batches in one call.

Covers the weights token every write path must reset (and
``refine_prototype`` must keep), the serial drain's stacked embedding and
NCM pass and the unfused fallback, the one-pass lane grouping of
``_enqueue`` against the per-lane scan it replaced, and the scheduler's
lazily built stats rows.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import get_backend
from repro.control.chaos import FlakyDevice
from repro.core.embedding import EmbeddingNetwork
from repro.core.ncm import NCMClassifier
from repro.edge import inference
from repro.edge.device import EdgeDevice
from repro.edge.transfer import package_for_edge
from repro.exceptions import RoutingError, ShapeError
from repro.fleet import (
    CheckpointStore,
    FleetCoordinator,
    FleetDevice,
    TrafficGenerator,
    WorkloadSpec,
)
from repro.serving import EventLoopScheduler, PredictRequest, serve
from repro.serving import scheduler as scheduler_module
from repro.serving.client import IN_PROCESS_PROFILE
from repro.serving.scheduler import _lane_runs

N_LANES = 4


@pytest.fixture(scope="module")
def package(pretrained_pilote):
    return package_for_edge(pretrained_pilote)


@pytest.fixture()
def fleet(package, tiny_config):
    coordinator = FleetCoordinator(tiny_config, seed=0)
    coordinator.provision(N_LANES)
    coordinator.deploy(package)
    return coordinator


@pytest.fixture(scope="module")
def pool(run_scenario):
    return run_scenario.test.features


@pytest.fixture()
def embed_calls(monkeypatch):
    """Row counts of every ``EmbeddingNetwork.embed`` call, in order."""
    calls = []
    original = EmbeddingNetwork.embed

    def counted(self, features, **options):
        calls.append(int(np.shape(features)[0]))
        return original(self, features, **options)

    monkeypatch.setattr(EmbeddingNetwork, "embed", counted)
    return calls


def _one_batch_per_lane(scheduler, pool, sizes=(1, 2, 3, 4)):
    """Queue one request per lane (``sizes[i]`` rows on lane ``i``)."""
    rows, start = [], 0
    for size in sizes:
        rows.append(pool[start:start + size])
        start += size
    requests = [PredictRequest(user_id=i, features=r) for i, r in enumerate(rows)]
    futures = scheduler.submit_assigned(requests, np.arange(len(requests)))
    return rows, futures


def _token(device):
    return device.learner.model.weights_token


# ---------------------------------------------------------------------- #
class TestWeightsToken:
    def test_learners_from_one_package_share_its_token(self, package, tiny_config):
        first = package.instantiate_learner(tiny_config)
        second = package.instantiate_learner(tiny_config, copy_arrays=False)
        assert first.model.weights_token is package.weights_token
        assert second.model.weights_token is package.weights_token

    def test_other_packages_and_fresh_networks_never_match(self, pretrained_pilote, tiny_config):
        one, two = package_for_edge(pretrained_pilote), package_for_edge(pretrained_pilote)
        assert one.weights_token is not two.weights_token
        assert EmbeddingNetwork(10, config=tiny_config).weights_token is None
        assert pretrained_pilote.model.weights_token is None

    def test_learn_new_activity_resets_only_that_device(self, fleet, run_scenario, package):
        fleet.devices[1].learn_new_activity(run_scenario.new_train)
        assert _token(fleet.devices[1]) is None
        assert fleet.devices[1].fusion_key() is None
        for position in (0, 2, 3):
            assert _token(fleet.devices[position]) is package.weights_token

    def test_load_state_dict_resets(self, fleet):
        model = fleet.devices[0].learner.model
        model.load_state_dict(model.state_dict())
        assert model.weights_token is None

    def test_replacing_the_model_resets(self, fleet, tiny_config):
        learner = fleet.devices[0].learner
        learner.model = EmbeddingNetwork(learner.model.input_dim, config=tiny_config)
        assert fleet.devices[0].fusion_key() is None

    def test_pretrain_resets(self, package, tiny_config, run_scenario):
        learner = package.instantiate_learner(tiny_config)
        learner.pretrain(run_scenario.old_train)
        assert learner.model.weights_token is None

    def test_checkpoint_restore_resets(self, fleet, tmp_path):
        store = CheckpointStore(tmp_path)
        restored = store.restore(store.save(fleet.devices[2]))
        assert _token(restored) is None
        assert restored.fusion_key() is None

    def test_refine_prototype_keeps_it(self, fleet, pool, package):
        device = fleet.devices[3]
        before = device.fusion_key()
        device.learner.refine_prototype(device.learner.classes_[0], pool[:4])
        assert device.fusion_key() == before
        assert _token(device) is package.weights_token


# ---------------------------------------------------------------------- #
class TestFusedDrain:
    def test_shared_weights_make_one_embed_call(self, fleet, pool, embed_calls):
        scheduler = EventLoopScheduler(fleet.devices)
        rows, futures = _one_batch_per_lane(scheduler, pool)
        scheduler.drain()
        assert embed_calls == [sum(r.shape[0] for r in rows)]
        for device, lane_rows, future in zip(fleet.devices, rows, futures):
            response = future.result()
            assert response.device_id == device.device_id
            np.testing.assert_array_equal(response.class_ids, device.serve(lane_rows))

    def test_retrained_device_embeds_alone(self, fleet, pool, run_scenario, embed_calls):
        fleet.devices[2].learn_new_activity(run_scenario.new_train)
        scheduler = EventLoopScheduler(fleet.devices)
        rows, futures = _one_batch_per_lane(scheduler, pool)
        del embed_calls[:]
        scheduler.drain()
        # Lanes 0, 1 and 3 still share the package weights; lane 2 is alone.
        assert sorted(embed_calls) == sorted([1 + 2 + 4, 3])
        for device, lane_rows, future in zip(fleet.devices, rows, futures):
            np.testing.assert_array_equal(future.result().class_ids, device.serve(lane_rows))

    def test_no_shared_weights_embed_once_per_lane(self, fleet, pool, embed_calls):
        for device in fleet.devices:
            device.learner.model.load_state_dict(device.learner.model.state_dict())
        scheduler = EventLoopScheduler(fleet.devices)
        rows, _ = _one_batch_per_lane(scheduler, pool)
        scheduler.drain()
        assert embed_calls == [r.shape[0] for r in rows]

    def test_fusion_changes_no_simulated_number(
        self, package, tiny_config, pool, embed_calls, simulated_fields
    ):
        """Fused and unfused lanes are charged the same modeled service time."""
        workload = WorkloadSpec(
            pattern="zipf", n_users=64, requests_per_tick=32, n_ticks=6,
            tick_seconds=1e-4,
        )
        reports, calls = [], []
        for fused in (True, False):
            coordinator = FleetCoordinator(tiny_config, seed=0)
            coordinator.provision(N_LANES)
            coordinator.deploy(package)
            if not fused:
                for device in coordinator.devices:
                    device.learner.model.weights_token = None
            client = serve(coordinator, seed=0)
            for requests in TrafficGenerator(pool, workload, seed=3).ticks():
                client.submit_many(requests)
                client.drain()
            reports.append(client.report().to_dict())
            calls.append(len(embed_calls))
            del embed_calls[:]
        assert calls[0] < calls[1]  # the first run really fused
        assert simulated_fields(reports[0]) == simulated_fields(reports[1])

    @pytest.mark.parametrize("rows_per_lane", [1, 2, 5, 16])
    def test_stacked_embeddings_match_each_device(self, fleet, pool, rows_per_lane):
        devices = fleet.devices
        rows = [pool[i * 16:i * 16 + rows_per_lane] for i in range(N_LANES)]
        stacked = devices[0].embed(np.concatenate(rows))
        for position, device in enumerate(devices):
            with device.edge.precision():
                own = device.engine.learner.embed(rows[position])
            fused = stacked[position * rows_per_lane:(position + 1) * rows_per_lane]
            assert fused.dtype == own.dtype
            np.testing.assert_allclose(fused, own, rtol=1e-6, atol=1e-7)
            with device.edge.precision():
                answer = device.engine.classify(fused)
            np.testing.assert_array_equal(answer, device.serve(rows[position]))

    def test_fused_answers_follow_each_devices_prototypes(self, fleet, pool, embed_calls):
        device = fleet.devices[1]
        device.learner.refine_prototype(device.learner.classes_[0], pool[40:60])
        with serve(fleet, routing="hash", seed=3) as client:
            requests = [
                PredictRequest(user_id=user, features=pool[user % 50:user % 50 + 3])
                for user in range(24)
            ]
            futures = client.submit_many(requests)
            del embed_calls[:]
            client.drain()
            assert embed_calls == [sum(r.n_windows for r in requests)]
            by_device = {d.device_id: d for d in fleet.devices}
            for request, future in zip(requests, futures):
                response = future.result()
                expected = by_device[response.device_id].serve(request.features)
                np.testing.assert_array_equal(response.class_ids, expected)
            report = client.report()
        for stats in report.per_device.values():
            assert stats.requests > 0 and stats.wall_seconds > 0.0

    def test_malformed_lane_fails_alone(self, fleet, pool, embed_calls):
        scheduler = EventLoopScheduler(fleet.devices)
        rows = [pool[:1], pool[1:3], np.ones((2, pool.shape[1] + 1)), pool[3:7]]
        futures = scheduler.submit_assigned(
            [PredictRequest(user_id=i, features=r) for i, r in enumerate(rows)],
            np.arange(N_LANES),
        )
        scheduler.drain()
        assert embed_calls == [1, 2, 2, 4]  # the stack failed; each lane alone
        with pytest.raises(ShapeError):
            futures[2].result()
        for position in (0, 1, 3):
            np.testing.assert_array_equal(
                futures[position].result().class_ids,
                fleet.devices[position].serve(rows[position]),
            )

    def test_edf_thread_and_wrapped_lanes_do_not_fuse(self, fleet, pool, embed_calls):
        for options in ({"scheduling": "edf"}, {"executor": "thread", "workers": 2}):
            del embed_calls[:]
            with EventLoopScheduler(fleet.devices, **options) as scheduler:
                _one_batch_per_lane(scheduler, pool)
                scheduler.drain()
            assert len(embed_calls) == N_LANES
        del embed_calls[:]
        scheduler = EventLoopScheduler([FlakyDevice(d) for d in fleet.devices])
        _one_batch_per_lane(scheduler, pool)
        scheduler.drain()
        assert len(embed_calls) == N_LANES


class TestParkedEmbeddingInvalidation:
    """A done-callback on lane 0 (served first) changes lane 1's batch."""

    def _run(self, fleet, pool, on_lane0_done):
        scheduler = EventLoopScheduler(fleet.devices)
        rows, futures = _one_batch_per_lane(scheduler, pool, sizes=(1, 2, 2, 2))
        extra = [
            scheduler.submit_assigned(
                [PredictRequest(user_id=9, features=pool[30:32])], np.array([1])
            )[0]
        ]
        futures[0].add_done_callback(lambda _: on_lane0_done(scheduler, futures, extra))
        scheduler.drain()
        return rows, futures, extra

    def test_cancelled_request_falls_back_to_own_embed(self, fleet, pool, embed_calls):
        rows, futures, extra = self._run(
            fleet, pool, lambda scheduler, futures, extra: extra[0].cancel()
        )
        assert extra[0].cancelled()
        assert embed_calls == [1 + 4 + 2 + 2, 2]  # stacked, then lane 1 alone
        np.testing.assert_array_equal(
            futures[1].result().class_ids, fleet.devices[1].serve(rows[1])
        )

    def test_coalesced_request_falls_back_to_own_embed(self, fleet, pool, embed_calls):
        late = []

        def coalesce(scheduler, futures, extra):
            late.append(scheduler.submit_assigned(
                [PredictRequest(user_id=8, features=pool[40:41])], np.array([1])
            )[0])

        rows, futures, extra = self._run(fleet, pool, coalesce)
        assert embed_calls == [1 + 4 + 2 + 2, 5]
        device = fleet.devices[1]
        np.testing.assert_array_equal(futures[1].result().class_ids, device.serve(rows[1]))
        np.testing.assert_array_equal(late[0].result().class_ids, device.serve(pool[40:41]))

    def test_rewritten_weights_fall_back_to_own_embed(self, fleet, pool, embed_calls):
        device = fleet.devices[1]
        state = {
            key: value * 1.5 if key.startswith("param.") else value
            for key, value in device.learner.model.state_dict().items()
        }

        def rewrite(scheduler, futures, extra):
            device.learner.model.load_state_dict(state)

        rows, futures, extra = self._run(fleet, pool, rewrite)
        assert embed_calls == [1 + 4 + 2 + 2, 4]
        np.testing.assert_array_equal(futures[1].result().class_ids, device.serve(rows[1]))
        np.testing.assert_array_equal(
            extra[0].result().class_ids, device.serve(pool[30:32])
        )


class TestReplacedDevices:
    def test_replacement_from_the_package_keeps_fusing(
        self, fleet, package, tiny_config, pool, embed_calls
    ):
        scheduler = EventLoopScheduler(fleet.devices)
        replacement = FleetDevice(fleet.devices[1].device_id, EdgeDevice(fleet.devices[1].profile))
        replacement.deploy(package, tiny_config)
        scheduler.replace_device(replacement.device_id, replacement)
        _one_batch_per_lane(scheduler, pool)
        scheduler.drain()
        assert len(embed_calls) == 1

    def test_restored_replacement_embeds_alone(self, fleet, pool, tmp_path, embed_calls):
        store = CheckpointStore(tmp_path)
        replacement = store.restore(store.save(fleet.devices[1]))
        scheduler = EventLoopScheduler(fleet.devices)
        scheduler.replace_device(replacement.device_id, replacement)
        rows, futures = _one_batch_per_lane(scheduler, pool)
        del embed_calls[:]
        scheduler.drain()
        assert sorted(embed_calls) == sorted([1 + 3 + 4, 2])
        np.testing.assert_array_equal(futures[1].result().class_ids, replacement.serve(rows[1]))


# ---------------------------------------------------------------------- #
def _puller(device, rows):
    """A callable that refines a class the device does not give ``rows`` yet
    towards them, so the device answers ``rows`` differently afterwards."""
    before = device.serve(rows)
    class_id = next(c for c in device.learner.classes_ if c not in set(before.tolist()))

    def pull(*_):
        with device.edge.precision():
            device.learner.refine_prototype(class_id, np.repeat(rows, 200, axis=0))

    return before, pull


class TestFusedNCM:
    """One NCM call per group; a lane whose NCM state moved is served unfused."""

    def _serve_with_lane0_callback(self, fleet, pool, on_lane0_done):
        scheduler = EventLoopScheduler(fleet.devices)
        rows, futures = _one_batch_per_lane(scheduler, pool, sizes=(1, 2, 2, 2))
        futures[0].add_done_callback(lambda _: on_lane0_done(scheduler))
        scheduler.drain()
        return rows, futures

    @pytest.fixture()
    def distance_calls(self, monkeypatch):
        """``(rows, prototypes)`` of every ``pairwise_distances`` call, in order."""
        backend = type(get_backend())
        calls = []
        original = backend.pairwise_distances

        def counted(self, queries, references):
            calls.append((queries.shape[0], references.shape[0]))
            return original(self, queries, references)

        monkeypatch.setattr(backend, "pairwise_distances", counted)
        return calls

    def test_one_distance_call_per_group(self, fleet, pool, distance_calls):
        scheduler = EventLoopScheduler(fleet.devices)
        rows, futures = _one_batch_per_lane(scheduler, pool)
        scheduler.drain()
        n_classes = sum(len(d.learner.classes_) for d in fleet.devices)
        assert distance_calls == [(sum(r.shape[0] for r in rows), n_classes)]
        for device, lane_rows, future in zip(fleet.devices, rows, futures):
            np.testing.assert_array_equal(future.result().class_ids, device.serve(lane_rows))

    def test_distance_calls_stay_within_the_bound(
        self, fleet, pool, distance_calls, monkeypatch
    ):
        # 4 classes a lane; lanes of 1, 2, 3 and 4 rows.  Lanes 0+1 fit
        # (3 rows x 8 prototypes); adding lane 2 would not (6 x 12), nor
        # lane 3 to lane 2 (7 x 8), so lanes 2 and 3 each get a call.
        monkeypatch.setattr(inference, "STACKED_DISTANCES", 40)
        scheduler = EventLoopScheduler(fleet.devices)
        rows, futures = _one_batch_per_lane(scheduler, pool)
        scheduler.drain()
        assert distance_calls == [(3, 8), (3, 4), (4, 4)]
        for device, lane_rows, future in zip(fleet.devices, rows, futures):
            np.testing.assert_array_equal(future.result().class_ids, device.serve(lane_rows))

    def test_replaced_devices_leave_no_stacked_state(
        self, fleet, package, tiny_config, pool, distance_calls
    ):
        scheduler = EventLoopScheduler(fleet.devices)
        held = sum(len(d.learner.classes_) for d in fleet.devices)
        engines, drained = [], []
        for _ in range(3):
            outgoing = scheduler.devices[1]
            replacement = FleetDevice(outgoing.device_id, EdgeDevice(outgoing.profile))
            replacement.deploy(package, tiny_config)
            engines.append(weakref.ref(replacement.engine))
            scheduler.replace_device(outgoing.device_id, replacement)
            del outgoing, replacement
            rows, futures = _one_batch_per_lane(scheduler, pool)
            del distance_calls[:]
            scheduler.drain()
            drained.append(list(distance_calls))
            for device, lane_rows, future in zip(scheduler.devices, rows, futures):
                np.testing.assert_array_equal(
                    future.result().class_ids, device.serve(lane_rows)
                )
        assert drained == [[(10, held)]] * 3  # only the lanes held now
        gc.collect()
        # Every replacement but the one the lane holds now has been freed.
        assert [ref() is None for ref in engines] == [True, True, False]

    def test_refine_mid_pass_is_followed(self, fleet, pool, embed_calls):
        device = fleet.devices[1]
        before, pull = _puller(device, pool[1:3])  # lane 1's rows
        del embed_calls[:]
        rows, futures = self._serve_with_lane0_callback(fleet, pool, pull)
        # Stacked, the refine in the callback, then lane 1 alone.
        assert embed_calls == [1 + 2 + 2 + 2, 400, 2]
        answer = futures[1].result().class_ids
        np.testing.assert_array_equal(answer, device.serve(rows[1]))
        assert not np.array_equal(answer, before)
        for position in (0, 2, 3):
            np.testing.assert_array_equal(
                futures[position].result().class_ids,
                fleet.devices[position].serve(rows[position]),
            )

    def test_replace_device_mid_pass(self, fleet, package, tiny_config, pool):
        original = fleet.devices[1]
        replacement = FleetDevice(original.device_id, EdgeDevice(original.profile))
        replacement.deploy(package, tiny_config)
        assert replacement.fusion_key() == original.fusion_key()
        before, pull = _puller(replacement, pool[1:3])
        pull()
        rows, futures = self._serve_with_lane0_callback(
            fleet, pool,
            lambda scheduler: scheduler.replace_device(original.device_id, replacement),
        )
        answer = futures[1].result().class_ids
        np.testing.assert_array_equal(answer, replacement.serve(rows[1]))
        np.testing.assert_array_equal(before, original.serve(rows[1]))
        assert not np.array_equal(answer, before)

    @pytest.mark.parametrize("change", ["second_token", "fewer_classes"])
    def test_mixed_groups_answer_like_each_device(self, fleet, pool, embed_calls, change):
        # Devices deployed from a second package of the same weights carry
        # that package's token: same bytes, another fusion group.
        second_token = object()
        for device in fleet.devices[2:]:
            learner = device.learner
            if change == "second_token":
                learner.model.weights_token = second_token
            else:
                learner.classifier = NCMClassifier().fit({
                    c: learner.prototypes.get(c) for c in learner.classes_[1:]
                })
        scheduler = EventLoopScheduler(fleet.devices)
        rows, futures = _one_batch_per_lane(scheduler, pool)
        scheduler.drain()
        # Lanes of different tokens never share an embed call.
        expected = [1 + 2, 3 + 4] if change == "second_token" else [1 + 2 + 3 + 4]
        assert sorted(embed_calls) == expected
        for device, lane_rows, future in zip(fleet.devices, rows, futures):
            np.testing.assert_array_equal(future.result().class_ids, device.serve(lane_rows))
        assert fleet.devices[3].engine.cache_info()["cached_classes"] == (
            len(fleet.devices[3].learner.classes_) - (change == "fewer_classes")
        )

    def test_engine_counters_and_answers_match_the_unfused_run(
        self, package, tiny_config, pool, embed_calls
    ):
        workload = WorkloadSpec(
            pattern="zipf", n_users=64, requests_per_tick=32, n_ticks=8,
            tick_seconds=1e-4,
        )
        counters, calls, answers = [], [], []
        for fused in (True, False):
            coordinator = FleetCoordinator(tiny_config, seed=0)
            coordinator.provision(N_LANES)
            coordinator.deploy(package)
            devices = coordinator.devices
            if not fused:
                for device in devices:
                    device.learner.model.weights_token = None
            client = serve(coordinator, seed=0)
            served = []
            for tick, requests in enumerate(TrafficGenerator(pool, workload, seed=3).ticks()):
                futures = client.submit_many(requests)
                # Prototype refreshes between passes and from inside one.
                device = devices[tick % N_LANES]
                with device.edge.precision():
                    device.learner.refine_prototype(device.learner.classes_[0], pool[tick:tick + 4])
                target = devices[(tick + 2) % N_LANES]

                def refine_mid_pass(_, target=target, rows=pool[tick + 8:tick + 12]):
                    with target.edge.precision():
                        target.learner.refine_prototype(target.learner.classes_[1], rows)

                futures[0].add_done_callback(refine_mid_pass)
                client.drain()
                served.extend(future.result().class_ids.tolist() for future in futures)
            counters.append([
                {key: device.engine.cache_info()[key]
                 for key in ("windows_served", "batches_served", "cache_refreshes")}
                for device in devices
            ])
            answers.append(served)
            calls.append(len(embed_calls))
            del embed_calls[:]
        assert calls[0] < calls[1]  # the first run really fused
        assert counters[0] == counters[1]
        assert answers[0] == answers[1]


# ---------------------------------------------------------------------- #
class TestGarbage:
    def test_answered_batches_are_freed_without_the_cyclic_collector(self, fleet, pool):
        gc.collect()
        gc.disable()
        try:
            with serve(fleet, routing="hash", seed=0) as client:
                futures = client.submit_many([
                    PredictRequest(user_id=user, features=pool[user:user + 2])
                    for user in range(12)
                ])
                client.drain()
                responses = [future.result() for future in futures]
                del futures
                alive = [
                    o for o in gc.get_objects()
                    if isinstance(o, (scheduler_module._Batch, scheduler_module._BatchFuture))
                ]
        finally:
            gc.enable()
        assert len(responses) == 12
        assert alive == []


class TestStatsRows:
    def test_warm_client_builds_no_stats_rows(self, fleet, pool, monkeypatch):
        with serve(fleet, routing="hash", seed=0) as client:
            client.submit_many([PredictRequest(user_id=0, features=pool[:2])])
            client.drain()  # warm: every row exists from construction on
            built = []
            original = scheduler_module.DeviceStats

            def counting(*args, **kwargs):
                built.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(scheduler_module, "DeviceStats", counting)
            for tick in range(100):
                now = client.clock_now()
                client.submit_many([
                    PredictRequest(user_id=user, features=pool[user:user + 2],
                                   arrival_seconds=now)
                    for user in range(6)
                ] + [
                    # Unmeetable deadline: rejected at admission (a stats write).
                    PredictRequest(user_id=7, features=pool[:1], arrival_seconds=0.0,
                                   deadline_seconds=1e-12),
                ])
                client.drain()
            report = client.report()
        assert built == []
        assert report.total_rejected >= 1


# ---------------------------------------------------------------------- #
def _per_lane_scan(assignment, arrivals, n_lanes):
    """The grouping ``_enqueue`` used before the one-pass sort."""
    runs = []
    for lane in range(n_lanes):
        lane_indices = np.flatnonzero(assignment == lane)
        if lane_indices.size == 0:
            continue
        boundaries = np.flatnonzero(np.diff(arrivals[lane_indices])) + 1
        for segment in np.split(lane_indices, boundaries):
            runs.append((lane, segment.tolist()))
    return runs


class _PerLaneScanScheduler(EventLoopScheduler):
    def _enqueue(self, requests, assignment):
        futures = [None] * len(requests)
        arrivals = np.fromiter((r.arrival_seconds for r in requests), dtype=np.float64)
        for lane, segment in _per_lane_scan(assignment, arrivals, self._n_lanes):
            segment_futures = self._enqueue_segment(
                lane, float(arrivals[segment[0]]), [requests[i] for i in segment]
            )
            for index, future in zip(segment, segment_futures):
                futures[index] = future
        return futures


class _StubDevice:
    profile = IN_PROCESS_PROFILE

    def __init__(self, device_id):
        self.device_id = device_id

    def infer(self, windows):
        return np.zeros(windows.shape[0], dtype=np.int64)


def _queue_state(scheduler, futures):
    lanes = []
    for lane in scheduler._lanes:
        batches = (
            lane.batches if hasattr(lane, "batches")
            else [lane._by_key[key] for key in sorted(lane._by_key, key=repr)]
        )
        lanes.append([
            (b.arrival, b.deadline, b.has_deadlines, [r.user_id for r in b.requests])
            for b in batches
        ])
    outcomes = [
        ("rejected", type(f.exception()).__name__) if f.done()
        else (f._batch.lane, f._batch.arrival, f._index, f.request.user_id)
        for f in futures
    ]
    return lanes, outcomes, scheduler._pending_counts.tolist(), scheduler._total_rejected


ARRIVALS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
SUBMISSIONS = st.integers(1, 5).flatmap(lambda n_lanes: st.tuples(
    st.just(n_lanes),
    st.lists(
        st.tuples(
            st.integers(0, n_lanes - 1),
            ARRIVALS,
            st.one_of(st.none(), st.sampled_from([0.1, 0.6, 1.5, 3.0])),
        ),
        min_size=1, max_size=40,
    ),
))


class TestOnePassGrouping:
    @given(SUBMISSIONS)
    @settings(max_examples=60, deadline=None)
    def test_runs_match_the_per_lane_scan(self, submission):
        n_lanes, entries = submission
        assignment = np.array([lane for lane, _, _ in entries], dtype=np.int64)
        arrivals = np.array([arrival for _, arrival, _ in entries])
        assert _lane_runs(assignment, arrivals, n_lanes) == _per_lane_scan(
            assignment, arrivals, n_lanes
        )

    @pytest.mark.parametrize("scheduling", ["fifo", "edf"])
    @given(submission=SUBMISSIONS)
    @settings(max_examples=40, deadline=None)
    def test_queues_and_futures_match_the_per_lane_scan(self, scheduling, submission):
        n_lanes, entries = submission
        features = np.ones((1, 3))
        requests = [
            PredictRequest(
                user_id=index, features=features, arrival_seconds=arrival,
                deadline_seconds=None if deadline is None else arrival + deadline,
            )
            for index, (_, arrival, deadline) in enumerate(entries)
        ]
        assignment = np.array([lane for lane, _, _ in entries], dtype=np.int64)
        states = []
        for cls in (EventLoopScheduler, _PerLaneScanScheduler):
            scheduler = cls(
                [_StubDevice(i) for i in range(n_lanes)], scheduling=scheduling
            )
            # A lane clock ahead of zero makes early deadlines unmeetable, so
            # admission rejects some requests too.
            scheduler._available_at[:] = 0.5
            futures = scheduler.submit_assigned(requests, assignment)
            states.append(_queue_state(scheduler, futures))
        assert states[0] == states[1]

    def test_out_of_range_lane_is_a_routing_error(self):
        scheduler = EventLoopScheduler([_StubDevice(0), _StubDevice(1)])
        request = PredictRequest(user_id=0, features=np.ones((1, 3)))
        with pytest.raises(RoutingError):
            scheduler.submit_assigned([request], np.array([2]))
