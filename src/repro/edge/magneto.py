"""MAGNETO platform orchestration (Figure 2, right side).

The platform object wires the pieces end to end:

1. the cloud pre-trains an initial model on the initially known activities;
2. the model + support set are packaged and "shipped" to an edge device
   (storage accounting included);
3. the edge device performs incremental updates with newly collected
   activities and serves predictions — without ever sending data back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset
from repro.edge.device import DeviceProfile, EdgeDevice
from repro.edge.transfer import TransferPackage, package_for_edge
from repro.exceptions import NotFittedError
from repro.nn.trainer import TrainingHistory
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover
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
        self._seed = seed
        #: The cloud's pre-trained learner; deployment hands it to the edge.
        self.cloud_learner: Optional[PILOTE] = None
        self.device = EdgeDevice(device_profile)
        self.package: Optional[TransferPackage] = None
        self.edge_learner: Optional[PILOTE] = None
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
        self.cloud_learner = PILOTE(self.config, seed=self._seed)
        return self.cloud_learner.pretrain(
            train, validation, exemplars_per_class=exemplars_per_class
        )

    def deploy_to_edge(self) -> TransferPackage:
        """Step 2: package the model + support set and store them on the device."""
        if self.cloud_learner is None:
            raise NotFittedError("cloud_pretrain() must run before deploy_to_edge()")
        package = package_for_edge(self.cloud_learner)
        self.device.store("model", package.model_bytes)
        self.device.store("support_set", package.support_set_bytes)
        self.device.store("prototypes", package.prototype_bytes)
        # The edge learner continues from the cloud learner's exact state.
        self.edge_learner = self.cloud_learner
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

    def serving_client(  # repro: noqa[repro-unused] examples/magneto_pipeline.py
        self, **kwargs
    ) -> "ServingClient":
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
    def storage_report(self) -> Dict[str, int]:  # repro: noqa[repro-unused] examples/magneto_pipeline.py
        """Current storage ledger of the edge device."""
        report = dict(self.device.allocations())
        report["free_bytes"] = self.device.storage_free
        return report
