"""Fused serving: lanes that share weights embed their batches in one call.

Covers the weights token every write path must reset (and
``refine_prototype`` must keep), the serial drain's stacked embedding and
its fallbacks, the one-pass lane grouping of ``_enqueue`` against the
per-lane scan it replaced, and the scheduler's lazily built stats rows.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control.chaos import FlakyDevice
from repro.core.embedding import EmbeddingNetwork
from repro.edge.device import EdgeDevice
from repro.edge.transfer import package_for_edge
from repro.exceptions import RoutingError, ShapeError
from repro.fleet import CheckpointStore, FleetCoordinator, FleetDevice
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
            np.testing.assert_array_equal(device.classify(fused), device.serve(rows[position]))

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
