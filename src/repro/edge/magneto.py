"""MAGNETO platform orchestration (Figure 2, right side).

The platform object wires the pieces end to end:

1. the cloud pre-trains an initial model on the initially known activities;
2. the model + support set are packaged and "shipped" to an edge device
   (storage accounting included);
3. the edge device performs incremental updates with newly collected
   activities and serves predictions — without ever sending data back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset
from repro.edge.cloud import CloudServer
from repro.edge.device import DeviceProfile, EdgeDevice
from repro.edge.transfer import TransferPackage
from repro.exceptions import NotFittedError
from repro.nn.trainer import TrainingHistory
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.coordinator import FleetCoordinator
    from repro.serving.client import ServingClient

logger = get_logger("edge.magneto")


class MagnetoPlatform:
    """End-to-end cloud → edge incremental-learning pipeline."""

    def __init__(
        self,
        config: Optional[PiloteConfig] = None,
        device_profile: Optional[DeviceProfile] = None,
        seed: RandomState = None,
    ) -> None:
        self.config = config or PiloteConfig()
        self.cloud = CloudServer(self.config, seed=seed)
        self.device = EdgeDevice(device_profile)
        self.package: Optional[TransferPackage] = None
        self.edge_learner: Optional[PILOTE] = None
        self.increment_histories: List[TrainingHistory] = []
        self._serving_client = None  # cached default repro.serving client

    # ------------------------------------------------------------------ #
    def cloud_pretrain(
        self,
        train: HARDataset,
        validation: Optional[HARDataset] = None,
        *,
        exemplars_per_class: Optional[int] = None,
    ) -> TrainingHistory:
        """Step 1: pre-train the warm-start model on the cloud."""
        self.cloud.pretrain(train, validation, exemplars_per_class=exemplars_per_class)
        assert self.cloud.history is not None
        return self.cloud.history

    def deploy_to_edge(self) -> TransferPackage:
        """Step 2: package the model + support set and store them on the device."""
        if self.cloud.learner is None:
            raise NotFittedError("cloud_pretrain() must run before deploy_to_edge()")
        package = self.cloud.export_package()
        self.device.store("model", package.model_bytes)
        self.device.store("support_set", package.support_set_bytes)
        self.device.store("prototypes", package.prototype_bytes)
        # The edge learner continues from the cloud learner's exact state.
        self.edge_learner = self.cloud.learner
        # Serving goes through the device's batched engine; the engine tracks
        # the learner's state version, so later increments invalidate its
        # prototype cache automatically.
        self.device.attach_inference(self.edge_learner.inference_engine())
        self.package = package
        logger.info(
            "deployed %.2f KB to edge device '%s' (%.2f KB free)",
            package.total_bytes / 1024,
            self.device.profile.name,
            self.device.storage_free / 1024,
        )
        return package

    def edge_learn_new_activity(
        self,
        new_train: HARDataset,
        new_validation: Optional[HARDataset] = None,
    ) -> TrainingHistory:
        """Step 3: incremental learning of newly collected activities on the edge."""
        if self.edge_learner is None:
            raise NotFittedError("deploy_to_edge() must run before edge learning")
        history = self.edge_learner.learn_new_classes(new_train, new_validation)
        self.increment_histories.append(history)
        # Refresh the storage ledger: the support set now also contains new-class exemplars.
        self.device.store("support_set", self.edge_learner.support_set_nbytes())
        self.device.store("prototypes", self.edge_learner.prototypes.nbytes())
        return history

    def serving_client(self, **kwargs) -> "ServingClient":
        """The platform's unified serving client (cached without options).

        Equivalent to ``repro.serving.serve(platform)``; keyword arguments
        (``routing``, ``seed``) are forwarded and bypass the cache.
        """
        from repro.serving.client import serve

        if kwargs:
            return serve(self, **kwargs)
        if self._serving_client is None:
            self._serving_client = serve(self)
        return self._serving_client

    # ------------------------------------------------------------------ #
    def to_fleet(self, n_devices: int, profiles=None) -> "FleetCoordinator":
        """Scale this platform out to ``n_devices`` independently-learning devices.

        The cloud's pre-trained package is broadcast to a freshly provisioned
        fleet (:class:`repro.fleet.FleetCoordinator`); each device receives
        its own learner copy and serving engine, so per-device increments and
        request routing can proceed from here.  Requires
        :meth:`cloud_pretrain` to have run.
        """
        from repro.fleet.coordinator import FleetCoordinator  # avoid an import cycle

        if self.cloud.learner is None:
            raise NotFittedError("cloud_pretrain() must run before to_fleet()")
        fleet = FleetCoordinator(
            self.config,
            profiles=profiles or (self.device.profile,),
            seed=self.cloud._seed,
        )
        fleet.provision(n_devices)
        fleet.deploy(self.cloud.export_package())
        return fleet

    # ------------------------------------------------------------------ #
    def storage_report(self) -> Dict[str, int]:
        """Current storage ledger of the edge device."""
        report = dict(self.device.allocations())
        report["free_bytes"] = self.device.storage_free
        return report
