"""The one learner-state format: capture, rebuild, ship.

``repro.core.persistence.pilote_state``/``pilote_from_state`` is the only way
a learner is captured and rebuilt:

* ``TransferPackage.instantiate_learner`` rebuilds through
  ``pilote_from_state`` and yields the learner it would yield from the same
  arrays;
* checkpoints (``save_pilote``/``load_pilote`` and ``CheckpointStore``)
  restore every archive on its own, and an archive naming an NCM metric
  other than Euclidean is rejected with a typed error;
* the process executor ships the format as copies, without the exemplar
  support set, and its workers answer byte-identically to the device after
  every kind of update, at float32 and at float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import precision
from repro.core.persistence import (
    load_pilote,
    pilote_from_state,
    pilote_state,
)
from repro.edge.device import DeviceProfile, EdgeDevice
from repro.edge.transfer import package_for_edge
from repro.exceptions import SerializationError
from repro.fleet import CheckpointStore, FleetCoordinator, FleetDevice
from repro.serving import ProcessExecutor, serve
from repro.utils.serialization import load_npz_state, save_npz_state


def _profile(dtype: str) -> DeviceProfile:
    return DeviceProfile(
        f"node-{dtype}", storage_bytes=2**28, memory_bytes=2**30, compute_dtype=dtype
    )


@pytest.fixture(scope="module")
def pool(run_scenario):
    return run_scenario.test.features[:48]


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_learner(a, b, pool) -> None:
    """Weights, exemplars, prototypes, class split and answers, byte for byte."""
    state_a, state_b = a.model.state_dict(), b.model.state_dict()
    assert list(state_a) == list(state_b)
    assert all(_same_bytes(state_a[key], state_b[key]) for key in state_a)
    assert a.exemplars.classes == b.exemplars.classes
    for class_id in a.exemplars.classes:
        assert _same_bytes(a.exemplars.get(class_id), b.exemplars.get(class_id))
    assert a.prototypes.classes == b.prototypes.classes
    for class_id in a.prototypes.classes:
        assert _same_bytes(a.prototypes.get(class_id), b.prototypes.get(class_id))
    assert a.old_classes == b.old_classes and a.new_classes == b.new_classes
    assert a.config == b.config
    assert a.state_version == b.state_version
    assert _same_bytes(a.predict(pool), b.predict(pool))


# ---------------------------------------------------------------------- #
# one rebuild path
# ---------------------------------------------------------------------- #
class TestInstantiateIsPiloteFromState:
    @pytest.mark.parametrize("copy_arrays", [True, False], ids=["copied", "shared"])
    @pytest.mark.parametrize("profile", ["reference", "edge"])
    def test_same_learner_from_the_same_arrays(
        self, pretrained_pilote, pool, copy_arrays, profile
    ):
        package = package_for_edge(pretrained_pilote)
        with precision(profile):
            instantiated = package.instantiate_learner(
                pretrained_pilote.config, seed=3, copy_arrays=copy_arrays
            )
            rebuilt = pilote_from_state(*pilote_state(pretrained_pilote), seed=3)
            _assert_same_learner(instantiated, rebuilt, pool)
        assert instantiated.state_version == 1
        assert instantiated.model.weights_token is package.weights_token
        shared = [
            np.shares_memory(instantiated.prototypes.get(c), package.prototypes[c])
            for c in package.prototypes
        ]
        assert all(shared) if not copy_arrays else not any(shared)

    def test_same_future_training(self, pretrained_pilote, run_scenario, pool):
        """Config and seed land the same way, so an increment learns the same."""
        package = package_for_edge(pretrained_pilote)
        instantiated = package.instantiate_learner(pretrained_pilote.config, seed=3)
        rebuilt = pilote_from_state(*pilote_state(pretrained_pilote), seed=3)
        for learner in (instantiated, rebuilt):
            learner.learn_new_classes(run_scenario.new_train, run_scenario.new_validation)
        _assert_same_learner(instantiated, rebuilt, pool)

    def test_restored_learner_is_at_version_one_and_defaults_to_euclidean(
        self, pretrained_pilote, pool
    ):
        state, metadata = pilote_state(pretrained_pilote)
        assert "metric" not in metadata
        expected = pretrained_pilote.predict(pool)
        # Archives written while the metric travelled name it explicitly.
        for archived in (metadata, {**metadata, "metric": "euclidean"}):
            restored = pilote_from_state(state, archived)
            assert restored.state_version == 1
            assert np.array_equal(restored.predict(pool), expected)

    @pytest.mark.parametrize(
        "update",
        ["refit_classifier", "refine_prototype", "build_support_set", "learn_new_classes"],
    )
    def test_each_update_bumps_the_version_once(
        self, pilote_copy, run_scenario, pool, update
    ):
        """Every update refits the classifier through one method, which bumps
        ``state_version`` once, so a live engine rebuilds its cache once."""
        engine = pilote_copy.inference_engine()
        engine.predict(pool)
        version = pilote_copy.state_version
        refreshes = engine.cache_info()["cache_refreshes"]
        if update == "refit_classifier":
            # A direct prototype edit becomes visible through one refit.
            old_classes = pilote_copy.old_classes
            pilote_copy.prototypes.set(
                old_classes[0], pilote_copy.prototypes.get(old_classes[1])
            )
            pilote_copy.refit_classifier()
        elif update == "refine_prototype":
            pilote_copy.refine_prototype(pilote_copy.old_classes[0], pool[:4])
        elif update == "build_support_set":
            pilote_copy.build_support_set(per_class=5)
        else:
            pilote_copy.learn_new_classes(
                run_scenario.new_train, run_scenario.new_validation
            )
        assert pilote_copy.state_version == version + 1
        assert np.array_equal(engine.predict(pool), pilote_copy.predict(pool))
        assert pilote_copy.state_version == version + 1
        assert engine.cache_info()["cache_refreshes"] == refreshes + 1


# ---------------------------------------------------------------------- #
# checkpoints
# ---------------------------------------------------------------------- #
class TestCheckpoints:
    @pytest.mark.parametrize("metric", ["cosine", "manhattan", None])
    def test_archive_naming_another_metric_is_rejected(
        self, pretrained_pilote, tmp_path, metric
    ):
        state, metadata = pilote_state(pretrained_pilote)
        metadata["metric"] = metric
        with pytest.raises(SerializationError, match="unsupported NCM metric"):
            pilote_from_state(state, metadata)
        path = save_npz_state(tmp_path / "archive", state, metadata=metadata)
        with pytest.raises(SerializationError, match="unsupported NCM metric"):
            load_pilote(path)

    @pytest.mark.parametrize("fields", [
        {"normalize_embeddings": False},
        {"batch_norm": True},
        {"normalize_embeddings": False, "batch_norm": True},
    ], ids=["normalize_embeddings", "batch_norm", "both"])
    def test_config_with_an_unknown_field_is_rejected(self, pretrained_pilote, fields):
        """Metadata shaped like a version-1 archive's, whose config still
        holds the backbone switches, fails with a typed error naming them."""
        state, metadata = pilote_state(pretrained_pilote)
        metadata["config"] = {**metadata["config"], **fields}
        with pytest.raises(SerializationError, match="unknown PiloteConfig field") as raised:
            pilote_from_state(state, metadata)
        assert all(repr(name) in str(raised.value) for name in fields)

    @pytest.mark.parametrize("dropped", [("alpha",), ("alpha", "seed")],
                             ids=["alpha", "alpha-and-seed"])
    def test_config_missing_a_field_is_rejected(self, pretrained_pilote, dropped):
        """A field missing from the metadata is an error naming it, never
        silently filled with the field's default."""
        state, metadata = pilote_state(pretrained_pilote)
        metadata["config"] = {
            name: value for name, value in metadata["config"].items()
            if name not in dropped
        }
        with pytest.raises(SerializationError, match="missing from metadata") as raised:
            pilote_from_state(state, metadata)
        assert all(repr(name) in str(raised.value) for name in dropped)

    def test_version_one_checkpoint_is_rejected(self, pretrained_pilote, tmp_path):
        state, metadata = pilote_state(pretrained_pilote)
        metadata["format_version"] = 1
        path = save_npz_state(tmp_path / "archive", state, metadata=metadata)
        with pytest.raises(SerializationError, match="unsupported checkpoint version 1"):
            load_pilote(path)

    def test_checkpoint_store_rejects_another_metric(self, pilote_copy, tmp_path):
        device = FleetDevice(0, EdgeDevice(_profile("float64")))
        device.adopt(pilote_copy)
        store = CheckpointStore(tmp_path)
        checkpoint = store.save(device)
        state = load_npz_state(checkpoint.path)
        metadata = state.pop("__metadata__")
        save_npz_state(checkpoint.path, state, metadata={**metadata, "metric": "cosine"})
        with pytest.raises(SerializationError, match="unsupported NCM metric"):
            store.restore(checkpoint)

    def test_every_checkpoint_restores_its_own_state(self, pilote_copy, pool, tmp_path):
        device = FleetDevice(0, EdgeDevice(_profile("float64")))
        device.adopt(pilote_copy)
        store = CheckpointStore(tmp_path)
        saved, answers = [], []
        rng = np.random.default_rng(0)
        for _ in range(3):
            pilote_copy.refine_prototype(
                pilote_copy.old_classes[0], rng.normal(size=(2, pool.shape[1]))
            )
            saved.append(store.save(device))
            answers.append(device.infer(pool))
        assert [c.checkpoint_id for c in saved] == [0, 1, 2]
        assert not np.array_equal(answers[0], answers[2])
        for checkpoint, expected in zip(saved, answers):
            assert np.array_equal(store.restore(checkpoint).infer(pool), expected)


# ---------------------------------------------------------------------- #
# process serving
# ---------------------------------------------------------------------- #
class _CapturingWorker:
    """Stands in for a pool worker: records what would cross the IPC queue."""

    def __init__(self) -> None:
        self.task_queue = self
        self.messages = []

    def put(self, message) -> None:
        self.messages.append(message)


def _ship(device):
    executor = ProcessExecutor(workers=1)
    executor.bind([device])
    worker = _CapturingWorker()
    executor._sync_lane(worker, 0)
    (kind, position, state, metadata), = worker.messages
    assert (kind, position) == ("sync", 0)
    return executor, state, metadata


class TestProcessShipping:
    def test_state_has_no_support_set_and_names_its_serving(self, pretrained_pilote):
        package = package_for_edge(pretrained_pilote)
        device = FleetDevice(0, EdgeDevice(_profile("float32")))
        device.deploy(package, pretrained_pilote.config, seed=0)
        executor, state, metadata = _ship(device)
        assert not [key for key in state if key.startswith("exemplars/")]
        assert {key.split("/")[0] for key in state} == {"model", "prototypes"}
        assert all(
            state[f"prototypes/{c}"].dtype == np.float32 for c in package.prototypes
        )
        assert metadata["state_version"] == device.learner.state_version
        assert metadata["batch_size"] == device.engine.batch_size
        assert metadata["compute_dtype"] == "float32"
        assert executor.sync_stats() == {
            "bytes_shipped": sum(value.nbytes for value in state.values()),
            "full_syncs": 1,
        }

    def test_state_holds_copies(self, pilote_copy):
        device = FleetDevice(0, EdgeDevice(_profile("float64")))
        device.adopt(pilote_copy)
        _, state, _ = _ship(device)
        before = {key: value.copy() for key, value in state.items()}
        class_id = pilote_copy.old_classes[0]
        prototype = pilote_copy.prototypes.get(class_id)
        assert not np.shares_memory(state[f"prototypes/{class_id}"], prototype)
        prototype += 1.0  # mutate the learner after capture, in place
        for parameter in pilote_copy.model.parameters():
            parameter.data += 1.0
        for key, value in state.items():
            assert _same_bytes(value, before[key]), key

    @pytest.mark.parametrize("update", ["refine_prototype", "learn_new_classes"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_reships_and_answers_like_the_device(
        self, pretrained_pilote, run_scenario, pool, update, dtype
    ):
        fleet = FleetCoordinator(
            pretrained_pilote.config, profiles=(_profile(dtype),), seed=0
        )
        fleet.provision(1)
        fleet.deploy(package_for_edge(pretrained_pilote))
        device = fleet.devices[0]
        with serve(fleet, executor="process", workers=1) as client:
            assert np.array_equal(client.predict(pool), device.serve(pool))
            if update == "refine_prototype":
                with device.edge.precision():
                    device.learner.refine_prototype(
                        device.learner.old_classes[0], run_scenario.old_train.features[:5]
                    )
            else:
                device.learn_new_activity(run_scenario.new_train)
            served = client.predict(pool)
            stats = client.sync_stats()
        expected = device.serve(pool)
        assert _same_bytes(served, expected)
        assert stats["full_syncs"] == 2
