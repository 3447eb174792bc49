"""Fleet provisioning and orchestration.

One cloud broadcast of a pre-trained learner, many edge devices: the
coordinator provisions N :class:`~repro.edge.device.EdgeDevice`s from
(possibly heterogeneous) :class:`~repro.edge.device.DeviceProfile`s, deploys
the same :class:`~repro.edge.transfer.TransferPackage` to each of them, and
schedules per-device incremental updates.  Every device that learns owns an
*independent* learner materialised from the package
(:meth:`~repro.edge.transfer.TransferPackage.instantiate_learner`), so devices
drift apart exactly as a real fleet does when new activities reach users at
different times.

Devices live in :class:`RegionCoordinator` regions.  By default every device
is its own region.  Past a few thousand devices one learner per device stops
scaling, so ``FleetCoordinator(..., n_regions=k)`` pools each region's
devices behind one copy-on-write template learner and a single serving lane,
and materialises into a real :class:`FleetDevice` only the devices that
actually drift (a scheduled increment, a checkpoint probe) — fleet memory
scales with *distinct states*, not device count, and a broadcast ships one
package per region instead of one per device.

Serving runs through each lane's batched
:class:`~repro.edge.inference.InferenceEngine`; request distribution is the
serving scheduler's job (:mod:`repro.serving.scheduler`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset
from repro.edge.device import DEVICE_PROFILES, DeviceProfile, EdgeDevice
from repro.edge.inference import InferenceEngine
from repro.edge.transfer import TransferPackage
from repro.exceptions import ConfigurationError, NotFittedError
from repro.nn.trainer import TrainingHistory
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, resolve_rng

logger = get_logger("fleet.coordinator")


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
        """Receive the cloud broadcast: build the local learner and engine.

        The learner shares the package's exemplar/prototype arrays
        copy-on-write instead of deep-copying them (safe: every learner
        mutation replaces whole per-class entries, never writes into rows),
        so devices that never learn cost no support-set copy.
        """
        with self.edge.precision():
            self.learner = package.instantiate_learner(
                config, seed=seed, copy_arrays=False
            )
            self.edge.store("model", package.model_bytes)
            self.edge.store("support_set", package.support_set_bytes)
            self.edge.store("prototypes", package.prototype_bytes)
            self.engine = self.learner.inference_engine()

    def adopt(self, learner: PILOTE) -> None:
        """Install an already-built learner (checkpoint restore path)."""
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

    def learn_new_activity(self, new_train: HARDataset) -> TrainingHistory:
        """On-device incremental update; refreshes the storage ledger."""
        if self.learner is None:
            raise NotFittedError(
                f"device {self.device_id} has no learner; deploy a package first"
            )
        with self.edge.precision():
            history = self.learner.learn_new_classes(new_train)
            self.edge.store("support_set", self.learner.support_set_nbytes())
            self.edge.store("prototypes", self.learner.prototypes.nbytes())
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


@dataclass
class FleetAccuracyReport:
    """Per-device accuracy after (staggered) increments, plus divergence.

    ``weights`` gives each entry a device multiplicity — the coordinator
    evaluates every *distinct state* once (one pooled template per region,
    each materialised device individually) and weights it by how many
    devices share it, so the mean/std describe the whole fleet, not the
    handful of evaluations.
    """

    per_device: Dict[int, float]
    weights: Dict[int, float]

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        keys = list(self.per_device)
        values = np.asarray([self.per_device[k] for k in keys], dtype=np.float64)
        return values, np.asarray([self.weights[k] for k in keys], dtype=np.float64)

    @property
    def n_devices(self) -> float:
        """Total device multiplicity behind the report."""
        _, weights = self._arrays()
        return float(weights.sum())

    @property
    def mean(self) -> float:
        values, weights = self._arrays()
        return float(np.average(values, weights=weights))

    @property
    def std(self) -> float:
        values, weights = self._arrays()
        mean = np.average(values, weights=weights)
        return float(np.sqrt(np.average((values - mean) ** 2, weights=weights)))

    @property
    def spread(self) -> float:
        """Max − min accuracy across the fleet (the divergence headline)."""
        values = list(self.per_device.values())
        return float(max(values) - min(values))

    def summary(self) -> Dict[str, float]:
        return {"mean": self.mean, "std": self.std, "spread": self.spread}


@dataclass
class TransferLedger:
    """Bytes that crossed the (simulated) cloud → edge network.

    One broadcast ships the package once *per region* — once per device on
    an unpooled fleet — and pooled regions materialise devices locally from
    the region's package; this ledger is where that difference becomes
    measurable (``pilote fleet-sim`` prints it and
    ``benchmarks/bench_fleet_scale.py`` gates on it).
    """

    deploy_bytes: int = 0
    deploy_shipments: int = 0

    def record_deploy(self, nbytes: int, shipments: int = 1) -> None:
        self.deploy_bytes += int(nbytes) * int(shipments)
        self.deploy_shipments += int(shipments)


@dataclass
class RegionCoordinator:
    """One region of a fleet: the contiguous device ids ``[start, stop)``.

    Every device in the region shares the region's device profile.  A
    one-device region materialises its device at provision and serves it
    directly.  A larger region *pools* its devices: until one drifts (a
    scheduled increment, a checkpoint probe) it is served from one
    copy-on-write template learner behind a single lane — a
    :class:`FleetDevice` with a *negative* id, so it can never collide with a
    real device id (always ≥ 0).  Drifted devices are *materialised* into
    ``materialized`` and served individually from then on.  ``package`` is
    the broadcast the region holds (``None`` before deployment); devices
    materialised later deploy from it.
    """

    region_id: int
    start: int
    stop: int
    profile: DeviceProfile
    lane: Optional[FleetDevice] = None
    package: Optional[TransferPackage] = None
    materialized: Dict[int, FleetDevice] = field(default_factory=dict)

    @property
    def n_devices(self) -> int:
        return self.stop - self.start

    @property
    def n_pooled(self) -> int:
        """Devices still served from the pooled template."""
        return self.n_devices - len(self.materialized)


class FleetCoordinator:
    """Provisions, deploys and schedules a fleet of edge devices.

    Devices live in :class:`RegionCoordinator` regions covering contiguous
    id ranges.  With ``n_regions=None`` every device is its own region and
    owns an independent learner from provision on.  With ``n_regions=k``
    each :meth:`provision` call shards its devices into (at most) ``k``
    regions that serve from one pooled copy-on-write template learner each,
    and only devices that actually diverge are materialised: a million
    devices that received the same broadcast and ran the same increments are
    bit-identical, so memory scales with the number of *distinct states*
    (regions + drifted devices), not with device count, and one broadcast
    ships one package per region instead of one per device.

    Whatever the region layout:

    - ``device(i)`` returns device ``i``, materialising it out of its
      region's pool when needed.  Device ``i`` always trains from the same
      per-device RNG stream, so a small fleet served pooled is bit-exact with
      the same fleet unpooled (``benchmarks/bench_fleet_scale.py`` gates on
      this).
    - :meth:`deploy` ships a package once per region that lacks it.
    - :meth:`serving_lanes` and :meth:`lane_map` are what
      :func:`repro.serving.serve` routes over: users hash to a *device*,
      and the lane map folds pooled devices onto their region's lane.
    - :meth:`accuracy_report` evaluates each distinct state once and weights
      it by how many devices share it.

    Parameters
    ----------
    config:
        PILOTE configuration shared by every device learner.
    profiles:
        Device profiles to cycle through (one per region) while
        provisioning; defaults to the stock smartphone profile.
    seed:
        Root seed; per-device learner streams are drawn from it so the
        fleet is reproducible end to end.
    n_regions:
        Regions per :meth:`provision` call, or ``None`` for one region per
        device (no pooling).
    """

    def __init__(
        self,
        config: Optional[PiloteConfig] = None,
        *,
        profiles: Optional[Sequence[DeviceProfile]] = None,
        seed: RandomState = None,
        n_regions: Optional[int] = None,
    ) -> None:
        if n_regions is not None and n_regions <= 0:
            raise ConfigurationError(f"n_regions must be positive, got {n_regions}")
        self.config = config or PiloteConfig()
        self.profiles = tuple(profiles) if profiles else (DEVICE_PROFILES["smartphone"],)
        self._root_rng = resolve_rng(seed)
        self._requested_regions = n_regions
        self.regions: List[RegionCoordinator] = []
        #: Live list of the materialised devices, in id order.
        self.devices: List[FleetDevice] = []
        self.transfers = TransferLedger()
        self._pending_increments: List[Tuple[int, int, HARDataset]] = []
        self._device_seeds = np.empty(0, dtype=np.int64)
        self._lanes: Optional[List[FleetDevice]] = None

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.regions[-1].stop if self.regions else 0

    @property
    def n_regions(self) -> Optional[int]:
        """Region count of a pooled fleet; ``None`` when every device is its own."""
        return None if self._requested_regions is None else len(self.regions)

    def provision(self, n_devices: int) -> List[FleetDevice]:
        """Add ``n_devices`` devices in new regions; returns those materialised.

        The new ids continue after the existing ones.  The fleet's profiles
        cycle per region (pooling requires every device in a region to share
        one).
        Devices of one-device regions — every device of an unpooled fleet —
        are materialised now and returned; pooled devices materialise lazily.
        """
        if n_devices <= 0:
            raise ConfigurationError(f"n_devices must be positive, got {n_devices}")
        if self._lanes is not None:
            raise ConfigurationError(
                "cannot provision after serving_lanes() froze the lane set"
            )
        n_devices = int(n_devices)
        n_new_regions = min(self._requested_regions or n_devices, n_devices)
        size = -(-n_devices // n_new_regions)  # ceil division
        first = len(self)
        created = []
        for index, start in enumerate(range(first, first + n_devices, size)):
            region = RegionCoordinator(
                len(self.regions),
                start,
                min(start + size, first + n_devices),
                self.profiles[index % len(self.profiles)],
            )
            self.regions.append(region)
            if region.n_devices == 1:
                created.append(self._materialize(region, start))
            else:
                region.lane = FleetDevice(-(region.region_id + 1), EdgeDevice(region.profile))
        logger.info(
            "provisioned %d devices in regions of <= %d (%d devices total)",
            n_devices,
            size,
            len(self),
        )
        return created

    def region_of(self, device_id: int) -> RegionCoordinator:
        """The region owning a (non-negative) device id."""
        device_id = int(device_id)
        if not 0 <= device_id < len(self):
            raise ConfigurationError(f"no device with id {device_id} in the fleet")
        index = bisect.bisect_right(self.regions, device_id, key=lambda r: r.start)
        return self.regions[index - 1]

    def device(self, device_id: int) -> FleetDevice:
        """Look up one device by id, materialising it out of its region's pool.

        A materialised device deploys copy-on-write from the package its
        region holds, with the device's own RNG stream.  Materialisation is
        frozen once :meth:`serving_lanes` ran — new lanes would invalidate
        the routing table.
        """
        region = self.region_of(device_id)
        device = region.materialized.get(int(device_id))
        if device is not None:
            return device
        if self._lanes is not None:
            raise ConfigurationError(
                "cannot materialise new devices after serving_lanes() froze the "
                "lane set; materialise (e.g. schedule increments) before serving"
            )
        return self._materialize(region, int(device_id))

    def _materialize(self, region: RegionCoordinator, device_id: int) -> FleetDevice:
        device = FleetDevice(device_id, EdgeDevice(region.profile))
        if region.package is not None:
            device.deploy(region.package, self.config, seed=self._device_rng(device_id))
        region.materialized[device_id] = device
        position = bisect.bisect(self.devices, device_id, key=lambda d: d.device_id)
        self.devices.insert(position, device)
        return device

    def _device_rng(self, device_id: int) -> np.random.Generator:
        return resolve_rng(int(self._device_seeds[device_id]))

    def replace_device(self, device_id: int, replacement: FleetDevice) -> FleetDevice:
        """Swap a materialised (crashed) device for its replacement.

        The replacement keeps the device's id and takes its place in
        :attr:`devices` and in the frozen serving lanes, so requests already
        queued for the device reach the replacement.
        """
        device_id = int(device_id)
        region = self.region_of(device_id)  # raises ConfigurationError when absent
        current = region.materialized.get(device_id)
        if current is None:
            raise ConfigurationError(
                f"device {device_id} is not materialised; only materialised "
                "devices can be replaced"
            )
        if int(replacement.device_id) != device_id:
            raise ConfigurationError(
                f"replacement carries device id {replacement.device_id}, "
                f"expected {device_id}"
            )
        region.materialized[device_id] = replacement
        self.devices[self.devices.index(current)] = replacement
        if self._lanes is not None and self._lanes is not self.devices:
            self._lanes[self._lanes.index(current)] = replacement
        return replacement

    # ------------------------------------------------------------------ #
    # broadcast
    # ------------------------------------------------------------------ #
    def deploy(self, package: TransferPackage) -> None:
        """Deploy one transfer package across the fleet.

        A region that already holds ``package`` is skipped; every other
        region ships it once, to its template lane and to each of its
        materialised devices, and the transfer ledger counts exactly those
        shipments.  Regions provisioned after a deploy stay undeployed until
        the next one, so serving routes only over the deployed lanes of a
        partially deployed fleet.
        """
        if not self.regions:
            raise ConfigurationError("provision() must run before deploy()")
        missing = len(self) - self._device_seeds.size
        if missing:
            drawn = self._root_rng.integers(0, 2**63 - 1, size=missing, dtype=np.int64)
            self._device_seeds = (
                np.concatenate([self._device_seeds, drawn]) if self._device_seeds.size else drawn
            )
        shipments = 0
        networks: Dict[str, object] = {}
        for region in self.regions:
            if region.package is package:
                continue
            region.package = package
            if region.lane is not None:
                region.lane.deploy(package, self.config, seed=0)
                # A template never trains (a drifting device materialises
                # instead), so the templates of one broadcast serve from one
                # read-only network per dtype.
                learner = region.lane.learner
                learner.model = networks.setdefault(region.lane.serving_dtype, learner.model)
            for device_id, device in region.materialized.items():
                device.deploy(package, self.config, seed=self._device_rng(device_id))
            shipments += 1
        self.transfers.record_deploy(package.total_bytes, shipments)
        logger.info(
            "deployed %.2f KB package to %d regions",
            package.total_bytes / 1024,
            shipments,
        )

    # ------------------------------------------------------------------ #
    # staggered incremental updates
    # ------------------------------------------------------------------ #
    def schedule_increment(
        self,
        device_id: int,
        tick: int,
        new_train: HARDataset,
    ) -> None:
        """Queue an incremental update for one device at a simulation tick."""
        self.device(device_id)  # validate (and materialise) the id eagerly
        self._pending_increments.append((int(tick), device_id, new_train))

    def run_due_increments(self, tick: int) -> Dict[int, TrainingHistory]:
        """Run every queued increment whose tick has arrived."""
        due = [entry for entry in self._pending_increments if entry[0] <= tick]
        self._pending_increments = [
            entry for entry in self._pending_increments if entry[0] > tick
        ]
        histories: Dict[int, TrainingHistory] = {}
        for _, device_id, new_train in sorted(due, key=lambda e: e[:2]):
            device = self.device(device_id)
            histories[device_id] = device.learn_new_activity(new_train)
            logger.info(
                "device %d integrated %d new-class samples at tick %d",
                device_id,
                new_train.n_samples,
                tick,
            )
        return histories

    # ------------------------------------------------------------------ #
    # serving integration
    # ------------------------------------------------------------------ #
    def serving_lanes(self) -> List[FleetDevice]:
        """Freeze and return the serving lanes.

        The template lanes of pooled regions come first (in region order),
        followed by every materialised device in id order; an unpooled fleet
        serves straight from its live :attr:`devices` list.
        :func:`repro.serving.client.serve` passes this list to the scheduler;
        the first call freezes materialisation so :meth:`lane_map` stays valid.
        """
        if self._lanes is None:
            templates = [r.lane for r in self.regions if r.lane is not None]
            self._lanes = templates + self.devices if templates else self.devices
        return self._lanes

    def lane_map(self) -> np.ndarray:
        """``device id → serving-lane position`` (int64 vector, one per device).

        Pooled devices map to their region's lane; materialised devices map
        to their own lane, so an unpooled fleet's map is the identity.
        :class:`~repro.serving.routing.HashRouting` indexes it with the
        hashed user id, which keeps the user → *device* assignment the same
        whatever the region layout — the lane merely serves whichever state
        that device currently holds.
        """
        positions = {lane.device_id: pos for pos, lane in enumerate(self.serving_lanes())}
        mapping = np.empty(len(self), dtype=np.int64)
        for region in self.regions:
            if region.lane is not None:
                mapping[region.start:region.stop] = positions[region.lane.device_id]
            for device_id in region.materialized:
                mapping[device_id] = positions[device_id]
        return mapping

    # ------------------------------------------------------------------ #
    def accuracy_report(self, dataset: HARDataset) -> FleetAccuracyReport:
        """Fleet accuracy: each distinct state once, weighted by multiplicity."""
        if not self.regions:
            raise ConfigurationError("the fleet has no devices")
        per_device: Dict[int, float] = {}
        weights: Dict[int, float] = {}
        for region in self.regions:
            lane = region.lane
            if lane is not None and lane.is_deployed and region.n_pooled > 0:
                per_device[lane.device_id] = lane.accuracy(dataset)
                weights[lane.device_id] = float(region.n_pooled)
            for device_id in sorted(region.materialized):
                device = region.materialized[device_id]
                if device.is_deployed:
                    per_device[device_id] = device.accuracy(dataset)
                    weights[device_id] = 1.0
        if not per_device:
            raise ConfigurationError("no deployed devices to evaluate; deploy() first")
        return FleetAccuracyReport(per_device=per_device, weights=weights)
