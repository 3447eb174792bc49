"""Edge-device resource model.

The Q2 experiments reason about storage budgets ("2500 exemplars in compressed
format would take 3.2 MB of space", "less than 200 exemplars per class, i.e.
< 256 KB") and per-epoch latency.  :class:`EdgeDevice` is the hardware only:
its :class:`DeviceProfile`, a storage ledger that refuses allocations past the
budget (which lets the experiment harness enforce edge constraints
explicitly) and the profile's dtype scope, :meth:`EdgeDevice.precision`.

:class:`FleetDevice` is that hardware with a learner on it: it receives a
:class:`~repro.edge.transfer.TransferPackage`, learns and serves under the
profile's dtype, and is the one writer of the device's ``model``,
``support_set`` and ``prototypes`` ledger entries.  The paper's one-device
:class:`~repro.edge.magneto.MagnetoPlatform` holds one; a
:class:`~repro.fleet.FleetCoordinator` holds many.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.backend import precision
from repro.exceptions import EdgeResourceError, NotFittedError

if TYPE_CHECKING:  # pragma: no cover - annotations only; edge sits below fleet/serving
    import numpy as np

    from repro.core.config import PiloteConfig
    from repro.core.pilote import PILOTE
    from repro.data.dataset import HARDataset
    from repro.edge.inference import InferenceEngine
    from repro.edge.transfer import TransferPackage
    from repro.nn.trainer import TrainingHistory
    from repro.utils.rng import RandomState


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of an edge device's resources.

    Attributes
    ----------
    name:
        Identifier (e.g. ``"smartphone"``, ``"wearable"``).
    storage_bytes:
        Persistent storage available for the model and support set.
    relative_compute:
        Compute speed relative to the reference machine (1.0 = same
        speed).  It divides measured epoch time to extrapolate training
        latency, and it divides the modeled serving time of
        :func:`~repro.serving.scheduler.service_seconds` on the simulated
        clock.
    """

    name: str
    storage_bytes: int
    relative_compute: float = 1.0
    compute_dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.storage_bytes <= 0:
            raise EdgeResourceError("the storage budget must be positive")
        if self.relative_compute <= 0:
            raise EdgeResourceError("relative_compute must be positive")
        if self.compute_dtype not in ("float32", "float64"):
            raise EdgeResourceError(
                f"compute_dtype must be 'float32' or 'float64', got {self.compute_dtype!r}"
            )


#: A handful of representative device profiles used in examples and benchmarks.
DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    "smartphone": DeviceProfile("smartphone", storage_bytes=64 * 2**20, relative_compute=0.5),
    "wearable": DeviceProfile("wearable", storage_bytes=8 * 2**20, relative_compute=0.1),
    "raspberry-pi": DeviceProfile("raspberry-pi", storage_bytes=128 * 2**20, relative_compute=0.3),
}


class EdgeDevice:
    """A stateful edge device with a storage ledger.

    The device stores named artefacts (model weights, support set, prototypes)
    and raises :class:`~repro.exceptions.EdgeResourceError` when an allocation
    would exceed the storage budget — the mechanism by which experiments detect
    configurations that do not fit the edge.
    """

    def __init__(self, profile: Optional[DeviceProfile] = None) -> None:
        self.profile = profile or DEVICE_PROFILES["smartphone"]
        self._allocations: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    @property
    def storage_used(self) -> int:
        return int(sum(self._allocations.values()))

    @property
    def storage_free(self) -> int:
        return self.profile.storage_bytes - self.storage_used

    def allocations(self) -> Dict[str, int]:
        """Copy of the current storage ledger."""
        return dict(self._allocations)

    # ------------------------------------------------------------------ #
    def store(self, name: str, nbytes: int) -> None:
        """Record an artefact of ``nbytes`` bytes; replaces an existing entry."""
        if nbytes < 0:
            raise EdgeResourceError(f"artefact size must be non-negative, got {nbytes}")
        projected = self.storage_used - self._allocations.get(name, 0) + nbytes
        if projected > self.profile.storage_bytes:
            raise EdgeResourceError(
                f"storing {name!r} ({nbytes} B) would exceed the {self.profile.name} "
                f"storage budget of {self.profile.storage_bytes} B "
                f"(currently used: {self.storage_used} B)"
            )
        self._allocations[name] = int(nbytes)

    # ------------------------------------------------------------------ #
    def precision(self):
        """Scoped dtype policy matching this device's profile.

        Usage: ``with device.precision(): learner.learn_new_classes(...)`` —
        everything inside runs in the profile's compute dtype (``float32``
        for the stock edge profiles).
        """
        return precision(self.profile.compute_dtype)


class FleetDevice:
    """One provisioned edge device: hardware budget + local learner + engine.

    The wrapper binds the three per-device pieces together — the
    :class:`EdgeDevice` storage/compute model, the device's own PILOTE learner
    and its serving engine — and runs learning and serving under the device
    profile's dtype policy.
    """

    def __init__(self, device_id: int, edge: EdgeDevice) -> None:
        self.device_id = int(device_id)
        self.edge = edge
        self.learner: Optional[PILOTE] = None
        #: ``learner.inference_engine()``, set beside ``learner`` (``None``
        #: until a package is deployed); remote executors ship its
        #: learner's state (:func:`~repro.core.persistence.pilote_state`).
        #: Stored, not a property deriving it on each read: serving reads it
        #: on every batch, and the property cost perfbench serve-small 7.0%
        #: of ``throughput_rps`` (median, lower in 10 of 10 alternating
        #: pairs, ``--seed 1 --seconds 8``, 2-vCPU x86 host).
        self.engine: Optional[InferenceEngine] = None
        self.increment_histories: List[TrainingHistory] = []

    # ------------------------------------------------------------------ #
    @property
    def profile(self) -> DeviceProfile:
        return self.edge.profile

    @property
    def serving_dtype(self) -> str:
        """Dtype :meth:`serve` runs under — the profile's compute dtype.

        Remote executors replicate it so off-process predictions stay
        bit-identical to the device's own.
        """
        return self.profile.compute_dtype

    @property
    def is_deployed(self) -> bool:
        return self.engine is not None

    def deploy(
        self, package: TransferPackage, config: PiloteConfig, seed: RandomState = None
    ) -> None:
        """Receive the cloud broadcast: build the local learner and adopt it.

        The learner is built under the profile's dtype and shares the
        package's exemplar/prototype arrays copy-on-write instead of
        deep-copying them (safe: every learner mutation replaces whole
        per-class entries, never writes into rows), so devices that never
        learn cost no support-set copy.  The ledger :meth:`adopt` writes
        equals the package's byte counts: both are float32 accounting.
        """
        with self.edge.precision():
            self.adopt(package.instantiate_learner(config, seed=seed, copy_arrays=False))

    def adopt(self, learner: PILOTE) -> None:
        """Install a built learner and write its ledger entries.

        The one writer of the ``model``, ``support_set`` and ``prototypes``
        entries: :meth:`deploy`, checkpoint restores and
        :meth:`learn_new_activity` (which re-adopts the updated learner) all
        go through it.
        """
        with self.edge.precision():
            self.learner = learner
            self.edge.store("model", learner.model_nbytes())
            self.edge.store("support_set", learner.support_set_nbytes())
            self.edge.store("prototypes", learner.prototypes.nbytes())
            self.engine = learner.inference_engine()

    # ------------------------------------------------------------------ #
    def serve(self, windows: np.ndarray) -> np.ndarray:
        """Serve a batch of windows at this device's compute dtype."""
        if self.engine is None:
            raise NotFittedError(
                f"device {self.device_id} has no learner; deploy a package first"
            )
        with self.edge.precision():
            return self.engine.predict(windows)

    #: The serving executors call ``infer`` on a device-like target; for a
    #: fleet device it is simply :meth:`serve`.
    infer = serve

    # -- fused serving: ``serve`` split at the embedding ------------------ #
    def fusion_key(self) -> Optional[tuple]:
        """``(weights_token, serving dtype)``, or ``None`` to never fuse.

        Lanes with equal keys hold the same network weights at the same
        dtype, so the serial scheduler may embed their windows in one
        stacked :meth:`embed` call and answer each lane from its
        :attr:`engine`'s prototypes.  ``None`` before deployment and once
        the learner owns its weights (trained on the device, restored from
        a checkpoint).
        """
        if self.learner is None:
            return None
        model = self.learner.model
        token = None if model is None else model.weights_token
        if token is None:
            return None
        return (token, self.profile.compute_dtype)

    def embed(self, windows: np.ndarray) -> np.ndarray:
        """Embed windows with the served network at this device's dtype."""
        with self.edge.precision():
            return self.learner.model.embed(windows)

    def learn_new_activity(
        self, new_train: HARDataset, new_validation: Optional[HARDataset] = None
    ) -> TrainingHistory:
        """On-device incremental update; refreshes the storage ledger.

        ``new_validation`` is :meth:`PILOTE.learn_new_classes`'s own, the
        split its early-stopping rule reads.
        """
        if self.learner is None:
            raise NotFittedError(
                f"device {self.device_id} has no learner; deploy a package first"
            )
        with self.edge.precision():
            history = self.learner.learn_new_classes(new_train, new_validation)
            self.adopt(self.learner)
        self.increment_histories.append(history)
        return history

    def accuracy(self, dataset: HARDataset) -> float:
        """Plain accuracy of this device's learner on a labelled dataset."""
        if self.learner is None:
            raise NotFittedError(f"device {self.device_id} has no learner")
        with self.edge.precision():
            return self.learner.evaluate(dataset)

    def describe(self) -> Dict[str, object]:  # repro: noqa[repro-unused] examples/fleet_simulation.py
        return {
            "device_id": self.device_id,
            "profile": self.profile.name,
            "storage_used": self.edge.storage_used,
            "storage_free": self.edge.storage_free,
            "classes": [] if self.learner is None else self.learner.classes_,
            "increments": len(self.increment_histories),
        }
