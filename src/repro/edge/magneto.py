"""MAGNETO platform orchestration (Figure 2, right side).

The platform object wires the pieces end to end:

1. the cloud pre-trains an initial model on the initially known activities;
2. the model + support set are packaged and "shipped" to one edge device, a
   :class:`~repro.edge.device.FleetDevice` (the same device a fleet holds),
   which builds its own learner from the package under its profile's dtype
   and writes its storage ledger;
3. the edge device performs incremental updates with newly collected
   activities (:meth:`~repro.edge.device.FleetDevice.learn_new_activity`) and
   serves predictions (``repro.serving.serve(platform)``) — without ever
   sending data back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset
from repro.edge.device import DeviceProfile, EdgeDevice, FleetDevice
from repro.edge.transfer import TransferPackage, package_for_edge
from repro.exceptions import NotFittedError
from repro.nn.trainer import TrainingHistory
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, resolve_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.client import ServingClient

logger = get_logger("edge.magneto")


class MagnetoPlatform:
    """End-to-end cloud → edge incremental-learning pipeline.

    ``seed`` (``config.seed`` when ``None``) seeds the cloud learner and a
    root generator; the device learner's seed is drawn from that generator,
    as a fleet draws one per device, so the device's increment does not
    replay the stream the cloud's pre-training started from.
    """

    def __init__(
        self,
        config: Optional[PiloteConfig] = None,
        device_profile: Optional[DeviceProfile] = None,
        seed: RandomState = None,
    ) -> None:
        self.config = config or PiloteConfig()
        self._seed = seed
        root = resolve_rng(seed if seed is not None else self.config.seed)
        self._device_seed = int(root.integers(0, 2**63 - 1))
        #: The cloud's pre-trained learner; deployment ships its package.
        self.cloud_learner: Optional[PILOTE] = None
        #: The edge device: :meth:`deploy_to_edge` gives it a learner of its
        #: own, which learns and serves there.
        self.device = FleetDevice(0, EdgeDevice(device_profile))
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
        """Step 2: package the model + support set and deploy them on the device."""
        if self.cloud_learner is None:
            raise NotFittedError("cloud_pretrain() must run before deploy_to_edge()")
        package = package_for_edge(self.cloud_learner)
        self.device.deploy(package, self.config, seed=self._device_seed)
        logger.info(
            "deployed %.2f KB to edge device '%s' (%.2f KB free)",
            package.total_bytes / 1024,
            self.device.profile.name,
            self.device.edge.storage_free / 1024,
        )
        return package

    def serving_client(  # repro: noqa[repro-unused] examples/magneto_pipeline.py
        self,
    ) -> "ServingClient":
        """The platform's serving client, ``repro.serving.serve(platform)``,
        built on first use and cached."""
        from repro.serving.client import serve

        if self._serving_client is None:
            self._serving_client = serve(self)
        return self._serving_client

    # ------------------------------------------------------------------ #
    def storage_report(self) -> Dict[str, int]:  # repro: noqa[repro-unused] examples/magneto_pipeline.py
        """Current storage ledger of the edge device."""
        edge = self.device.edge
        report = dict(edge.allocations())
        report["free_bytes"] = edge.storage_free
        return report
