"""Million-device fleet machinery: pooled regions and the device index.

Covers the hierarchical coordinator stack end to end at test scale:

* ``PILOTE.refine_prototype`` — the cheap single-class increment — updates
  exactly one prototype and bumps the state version;
* ``FleetCoordinator.device()`` resolves through the region index (including
  after ``replace_device``);
* a pooled ``FleetCoordinator(n_regions=k)`` serves a small fleet
  bit-identically to the unpooled one, pools undrifted devices behind region
  lanes, weights accuracy by multiplicity, and keeps lanes, ledger and
  materialised devices on one package across repeated broadcasts.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.config import PiloteConfig
from repro.core.embedding import EmbeddingNetwork
from repro.core.pilote import PILOTE
from repro.edge.device import DEVICE_PROFILES, DeviceProfile, EdgeDevice
from repro.edge.transfer import package_for_edge
from repro.exceptions import ConfigurationError, DataError
from repro.fleet import FleetCoordinator, FleetDevice
from repro.serving import PredictRequest, serve

N_FEATURES = 20
CONFIG = PiloteConfig(hidden_dims=(32, 16), embedding_dim=8, cache_size=200, seed=0)

SIM_NODE = DeviceProfile(
    "sim-node", storage_bytes=256 * 2**20, memory_bytes=2**30, relative_compute=1.0
)


def make_serving_learner(n_classes: int = 4, per_class: int = 25) -> PILOTE:
    """A deployed-looking learner without gradient training (fast, seeded)."""
    rng = np.random.default_rng(0)
    learner = PILOTE(CONFIG, seed=0)
    learner.model = EmbeddingNetwork(N_FEATURES, config=CONFIG, rng=0)
    learner.model.eval()
    learner._old_classes = list(range(n_classes))
    for class_id in range(n_classes):
        learner.exemplars.set_exemplars(
            class_id, rng.normal(size=(per_class, N_FEATURES)) + class_id
        )
    learner._refresh_prototypes()
    return learner


@pytest.fixture()
def learner() -> PILOTE:
    return make_serving_learner()


@pytest.fixture()
def windows() -> np.ndarray:
    return np.random.default_rng(9).normal(size=(12, N_FEATURES))


def _region_learners(fleet) -> list:
    """The learner of every region, one per region in region order."""
    return [
        region.lane.learner if region.lane is not None
        else region.materialized[region.start].learner
        for region in fleet.regions
    ]


# ---------------------------------------------------------------------- #
# cheap single-class increments
# ---------------------------------------------------------------------- #
class TestRefinePrototype:
    def test_moves_one_prototype_and_bumps_version(self, learner):
        rng = np.random.default_rng(3)
        before = {c: learner.prototypes.get(c).copy() for c in learner.prototypes.classes}
        version = learner.state_version
        updated = learner.refine_prototype(1, rng.normal(size=(6, N_FEATURES)) + 1)
        assert learner.state_version == version + 1
        assert not np.array_equal(updated, before[1])
        for class_id, old in before.items():
            if class_id != 1:
                assert np.array_equal(learner.prototypes.get(class_id), old)

    def test_single_row_accepted(self, learner):
        row = np.random.default_rng(4).normal(size=N_FEATURES)
        learner.refine_prototype(0, row)  # 1-D input reshaped to (1, d)

    def test_unknown_class_rejected(self, learner):
        with pytest.raises(DataError):
            learner.refine_prototype(99, np.zeros((2, N_FEATURES)))


# ---------------------------------------------------------------------- #
# unpooled fleet: id index
# ---------------------------------------------------------------------- #
class TestDeviceIndex:
    def test_lookup_and_missing(self, learner):
        fleet = FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=0)
        fleet.provision(5)
        assert fleet.device(3).device_id == 3
        with pytest.raises(ConfigurationError):
            fleet.device(17)

    def test_replace_device_updates_index(self, learner):
        fleet = FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=0)
        fleet.provision(3)
        replacement = FleetDevice(1, EdgeDevice(SIM_NODE))
        fleet.replace_device(1, replacement)
        assert fleet.device(1) is replacement
        assert fleet.devices[1] is replacement
        # Untouched ids still resolve after the swap.
        assert fleet.device(0).device_id == 0
        assert fleet.device(2).device_id == 2
        with pytest.raises(ConfigurationError):
            fleet.replace_device(2, FleetDevice(7, EdgeDevice(SIM_NODE)))


# ---------------------------------------------------------------------- #
# pooled regions
# ---------------------------------------------------------------------- #
class TestHierarchicalFleet:
    def _package(self, learner):
        return package_for_edge(learner)

    @pytest.mark.parametrize(
        "n_devices, n_regions",
        [(6, 3), (7, 3), (5, 2), (8, 3), (6, 6)],
        ids=["even", "singleton-tail", "uneven", "short-tail", "one-per-region"],
    )
    def test_small_fleet_bit_exact_with_flat(self, learner, n_devices, n_regions):
        package = self._package(learner)
        flat = FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=7)
        flat.provision(n_devices)
        flat.deploy(package)
        tree = FleetCoordinator(
            CONFIG, profiles=(SIM_NODE,), seed=7, n_regions=n_regions
        )
        tree.provision(n_devices)
        tree.deploy(package)
        for device_id in range(n_devices):
            tree.device(device_id)  # materialise everyone pre-freeze

        flat_client = serve(flat, seed=11)
        tree_client = serve(tree, seed=11)
        try:
            rng = np.random.default_rng(5)
            flat_pending, tree_pending = [], []
            for user in range(30):
                features = rng.normal(size=(3, N_FEATURES))
                flat_pending.append(
                    flat_client.submit(PredictRequest(user_id=user, features=features))
                )
                tree_pending.append(
                    tree_client.submit(PredictRequest(user_id=user, features=features))
                )
            flat_client.drain()
            tree_client.drain()
            for a, b in zip(flat_pending, tree_pending):
                assert a.result().device_id == b.result().device_id
                assert np.array_equal(a.result().class_ids, b.result().class_ids)
        finally:
            flat_client.close()
            tree_client.close()

    def test_pooled_serving_and_weighted_accuracy(self, learner, har_dataset):
        package = self._package(learner)
        tree = FleetCoordinator(CONFIG, seed=7, n_regions=4)
        tree.provision(100)
        tree.deploy(package)
        assert len(tree) == 100
        assert tree.n_regions == 4
        # Nobody drifted: four pooled lanes carry the whole fleet.
        lanes = tree.serving_lanes()
        assert len(lanes) == 4
        assert all(lane.device_id < 0 for lane in lanes)
        # The templates of one broadcast share one read-only network.
        assert len({id(lane.learner.model) for lane in lanes}) == 1
        mapping = tree.lane_map()
        assert mapping.shape == (100,)
        assert set(np.unique(mapping)) == {0, 1, 2, 3}

        dataset = har_dataset.subsample(40, rng=np.random.default_rng(0))
        probe_features = dataset.features[:, :N_FEATURES]
        from repro.data.dataset import HARDataset

        probe = HARDataset(probe_features, dataset.labels % 4)
        report = tree.accuracy_report(probe)
        assert report.n_devices == 100  # weights carry the multiplicity
        assert len(report.per_device) == 4

    def test_materialised_devices_drift_and_weigh_individually(self, learner):
        rng = np.random.default_rng(6)
        package = self._package(learner)
        tree = FleetCoordinator(CONFIG, seed=7, n_regions=2)
        tree.provision(10)
        tree.deploy(package)
        drifted = tree.device(3)
        drifted.learner.refine_prototype(0, rng.normal(size=(4, N_FEATURES)))
        region = tree.region_of(3)
        assert region.n_pooled == 4
        lanes = tree.serving_lanes()
        assert len(lanes) == 3  # 2 region lanes + device 3
        assert tree.lane_map()[3] == 2  # drifted device routes to its own lane
        assert tree.lane_map()[4] == region.region_id

    def test_provision_appends_regions_and_freeze_is_enforced(self, learner):
        package = self._package(learner)
        tree = FleetCoordinator(CONFIG, seed=7, n_regions=2)
        tree.provision(8)
        tree.provision(8)  # two more regions over ids 8..15
        assert len(tree) == 16 and tree.n_regions == 4
        assert tree.region_of(9).start == 8
        tree.deploy(package)
        tree.device(0)
        tree.serving_lanes()  # freezes materialisation
        tree.device(0)  # already materialised: still fine
        with pytest.raises(ConfigurationError):
            tree.device(5)
        with pytest.raises(ConfigurationError):
            tree.provision(1)

    def test_one_device_regions_serve_without_template_lanes(self, learner):
        """A pooled fleet whose regions hold one device each serves like an
        unpooled one: every device is materialised and is its own lane."""
        package = self._package(learner)
        fleet = FleetCoordinator(CONFIG, seed=7, n_regions=4)
        fleet.provision(4)
        fleet.deploy(package)
        assert all(region.lane is None for region in fleet.regions)
        assert [d.device_id for d in fleet.devices] == [0, 1, 2, 3]
        assert all(d.is_deployed for d in fleet.devices)
        assert fleet.serving_lanes() is fleet.devices
        assert fleet.lane_map().tolist() == [0, 1, 2, 3]

    def test_deploy_ships_once_per_region(self, learner):
        package = self._package(learner)
        tree = FleetCoordinator(CONFIG, seed=7, n_regions=5)
        tree.provision(500)
        tree.deploy(package)
        assert tree.transfers.deploy_shipments == 5
        assert tree.transfers.deploy_bytes == 5 * package.total_bytes

        flat = FleetCoordinator(CONFIG, seed=7)
        flat.provision(20)
        flat.deploy(package)
        assert flat.transfers.deploy_shipments == 20

        # provision -> deploy -> provision: a second deploy ships only to the
        # regions that lack the package, and leaves the others untouched.
        for fleet, n_devices, new_regions in ((tree, 500, 5), (flat, 4, 4)):
            shipped = fleet.transfers.deploy_shipments
            learners = _region_learners(fleet)
            fleet.provision(n_devices)
            fleet.deploy(package)
            assert fleet.transfers.deploy_shipments == shipped + new_regions
            assert fleet.transfers.deploy_bytes == (
                (shipped + new_regions) * package.total_bytes
            )
            assert _region_learners(fleet)[:len(learners)] == learners
            assert all(region.package is package for region in fleet.regions)

    @pytest.mark.parametrize("n_regions", [None, 2])
    def test_second_broadcast_reaches_every_lane(self, learner, n_regions):
        """A new package replaces the old on every lane, the ledger counts the
        shipments made, and devices materialised later hold the new package."""
        old = self._package(learner)
        new = self._package(make_serving_learner(per_class=20))
        fleet = FleetCoordinator(CONFIG, seed=7, n_regions=n_regions)
        fleet.provision(4)
        fleet.deploy(old)
        shipments = fleet.transfers.deploy_shipments
        fleet.deploy(new)
        assert fleet.transfers.deploy_shipments == 2 * shipments
        fleet.deploy(new)  # every region already holds it: nothing ships
        assert fleet.transfers.deploy_shipments == 2 * shipments
        assert fleet.transfers.deploy_bytes == shipments * (
            old.total_bytes + new.total_bytes
        )
        fleet.device(1)
        for lane in fleet.serving_lanes():
            assert lane.learner.model.weights_token is new.weights_token

    def test_replace_device_swaps_materialised_lane(self, learner, windows):
        package = self._package(learner)
        tree = FleetCoordinator(CONFIG, seed=7, n_regions=2)
        tree.provision(8)
        tree.deploy(package)
        original = tree.device(2)
        lanes = tree.serving_lanes()
        replacement = FleetDevice(2, EdgeDevice(DEVICE_PROFILES["smartphone"]))
        replacement.deploy(package, CONFIG, seed=0)
        tree.replace_device(2, replacement)
        assert tree.device(2) is replacement
        assert replacement in lanes and original not in lanes
