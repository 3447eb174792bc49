"""Fleet provisioning and orchestration.

One :class:`~repro.edge.cloud.CloudServer` broadcast, many edge devices: the
coordinator provisions N :class:`~repro.edge.device.EdgeDevice`s from
(possibly heterogeneous) :class:`~repro.edge.device.DeviceProfile`s, deploys
the same :class:`~repro.edge.transfer.TransferPackage` to each of them, and
schedules per-device incremental updates.  Every device owns an *independent*
learner materialised from the package
(:meth:`~repro.edge.transfer.TransferPackage.instantiate_learner`), so devices
drift apart exactly as a real fleet does when new activities reach users at
different times.

Serving runs through each device's batched
:class:`~repro.edge.inference.InferenceEngine`; request distribution is the
serving scheduler's job (:mod:`repro.serving.scheduler`).

At fleet sizes past a few thousand devices the flat coordinator's
one-learner-per-device model stops scaling, so
:class:`HierarchicalFleetCoordinator` restructures the fleet into a tree of
:class:`RegionCoordinator` shards: each region serves its devices from one
*pooled* copy-on-write template learner
(:meth:`~repro.edge.transfer.TransferPackage.instantiate_learner` with
``copy_arrays=False``) behind a single serving lane, and only devices that
actually drift (a scheduled increment, a checkpoint probe) are materialised
into real :class:`FleetDevice`\\ s — fleet memory scales with *distinct
states*, not device count, and a broadcast ships one package per region
instead of one per device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset
from repro.edge.device import DEVICE_PROFILES, DeviceProfile, EdgeDevice
from repro.edge.transfer import TransferPackage
from repro.exceptions import ConfigurationError, NotFittedError
from repro.nn.trainer import TrainingHistory
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, resolve_rng, spawn_rngs

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
        self.increment_histories: List[TrainingHistory] = []

    # ------------------------------------------------------------------ #
    @property
    def profile(self) -> DeviceProfile:
        return self.edge.profile

    @property
    def engine(self):
        """The serving engine attached to the underlying edge device.

        Exposed so remote executors can snapshot it
        (:meth:`~repro.edge.inference.InferenceEngine.state_snapshot`);
        ``None`` until a package is deployed.
        """
        return self.edge.engine

    @property
    def serving_dtype(self) -> str:
        """Dtype :meth:`serve` runs under — the profile's compute dtype.

        Remote executors replicate it so off-process predictions stay
        bit-identical to the device's own.
        """
        return self.profile.compute_dtype

    @property
    def is_deployed(self) -> bool:
        return self.learner is not None and self.edge.engine is not None

    def deploy(
        self,
        package: TransferPackage,
        config: PiloteConfig,
        seed: RandomState = None,
        *,
        copy_arrays: bool = True,
    ) -> None:
        """Receive the cloud broadcast: build the local learner and engine.

        ``copy_arrays=False`` shares the package's exemplar/prototype arrays
        copy-on-write instead of deep-copying them — the pooled-template path
        of :class:`HierarchicalFleetCoordinator` (safe: every learner
        mutation replaces whole per-class entries, never writes into rows).
        """
        with self.edge.precision():
            self.learner = package.instantiate_learner(
                config, seed=seed, copy_arrays=copy_arrays
            )
            self.edge.store("model", package.model_bytes)
            self.edge.store("support_set", package.support_set_bytes)
            self.edge.store("prototypes", package.prototype_bytes)
            self.edge.attach_inference(self.learner.inference_engine())

    def adopt(self, learner: PILOTE) -> None:
        """Install an already-built learner (checkpoint restore path)."""
        with self.edge.precision():
            self.learner = learner
            self.edge.store("model", learner.model_nbytes())
            self.edge.store("support_set", learner.support_set_nbytes())
            self.edge.store("prototypes", learner.prototypes.nbytes())
            self.edge.attach_inference(learner.inference_engine())

    # ------------------------------------------------------------------ #
    def serve(self, windows: np.ndarray) -> np.ndarray:
        """Serve a batch of windows at this device's compute dtype."""
        with self.edge.precision():
            return self.edge.serve(windows)

    #: The serving executors call ``infer`` on a device-like target; for a
    #: fleet device it is simply :meth:`serve`.
    infer = serve

    # -- fused serving: ``serve`` split at the embedding ------------------ #
    def fusion_key(self) -> Optional[tuple]:
        """``(weights_token, serving dtype)``, or ``None`` to never fuse.

        Lanes with equal keys hold the same network weights at the same
        dtype, so the serial scheduler may embed their windows in one
        stacked :meth:`embed` call and finish each lane with
        :meth:`classify`.  ``None`` before deployment and once the learner
        owns its weights (trained on the device, restored from a checkpoint).
        """
        engine = self.edge.engine
        if engine is None:
            return None
        model = engine.learner.model
        token = None if model is None else model.weights_token
        if token is None:
            return None
        return (token, self.profile.compute_dtype)

    def embed(self, windows: np.ndarray) -> np.ndarray:
        """Embed windows with the served network at this device's dtype."""
        engine = self.edge.engine
        with self.edge.precision():
            return engine.learner.model.embed(windows, batch_size=engine.batch_size)

    def classify(self, embeddings: np.ndarray) -> np.ndarray:
        """Finish :meth:`serve` from embeddings: this device's prototypes."""
        with self.edge.precision():
            return self.edge.engine.classify(embeddings)

    def learn_new_activity(
        self,
        new_train: HARDataset,
        new_validation: Optional[HARDataset] = None,
    ) -> TrainingHistory:
        """On-device incremental update; refreshes the storage ledger."""
        if self.learner is None:
            raise NotFittedError(
                f"device {self.device_id} has no learner; deploy a package first"
            )
        with self.edge.precision():
            history = self.learner.learn_new_classes(new_train, new_validation)
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

    def describe(self) -> Dict[str, object]:
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

    ``weights`` (optional) gives each entry a device multiplicity — the
    hierarchical coordinator evaluates every *distinct state* once (one
    pooled template per region, each drifted device individually) and
    weights it by how many devices share it, so the mean/std describe the
    whole fleet, not the handful of evaluations.  Without weights every
    entry counts once, matching the historical flat behaviour exactly.
    """

    per_device: Dict[int, float]
    weights: Optional[Dict[int, float]] = None

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        keys = list(self.per_device)
        values = np.asarray([self.per_device[k] for k in keys], dtype=np.float64)
        if self.weights is None:
            return values, np.ones(len(keys))
        return values, np.asarray(
            [self.weights.get(k, 1.0) for k in keys], dtype=np.float64
        )

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

    One broadcast on the flat coordinator ships the package once *per
    device*; the hierarchical coordinator ships once *per region* and
    materialises devices locally from the region template — this ledger is
    where that difference becomes measurable (``pilote fleet-sim`` prints it
    and ``benchmarks/bench_fleet_scale.py`` gates on it).
    """

    deploy_bytes: int = 0
    deploy_shipments: int = 0

    def record_deploy(self, nbytes: int, shipments: int = 1) -> None:
        self.deploy_bytes += int(nbytes) * int(shipments)
        self.deploy_shipments += int(shipments)


class FleetCoordinator:
    """Provisions, deploys and schedules a fleet of edge devices.

    Parameters
    ----------
    config:
        PILOTE configuration shared by every device learner.
    profiles:
        Device profiles to cycle through while provisioning; defaults to the
        stock smartphone profile for every device.
    seed:
        Root seed; per-device learner streams are spawned from it so the
        fleet is reproducible end to end.
    """

    def __init__(
        self,
        config: Optional[PiloteConfig] = None,
        *,
        profiles: Optional[Sequence[DeviceProfile]] = None,
        seed: RandomState = None,
    ) -> None:
        self.config = config or PiloteConfig()
        self.profiles = tuple(profiles) if profiles else (DEVICE_PROFILES["smartphone"],)
        self._root_rng = resolve_rng(seed)
        self.devices: List[FleetDevice] = []
        self.package: Optional[TransferPackage] = None
        self.transfers = TransferLedger()
        self._pending_increments: List[Tuple[int, int, HARDataset, Optional[HARDataset]]] = []
        self._rollout = None  # ActiveRollout when deploy(..., rollout=...) ran
        self._device_index: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.devices)

    def _reindex(self) -> None:
        self._device_index = {
            device.device_id: position for position, device in enumerate(self.devices)
        }

    def device(self, device_id: int) -> FleetDevice:
        """Look up one device by id (O(1) via the id → position index)."""
        device_id = int(device_id)
        position = self._device_index.get(device_id)
        if position is not None and position < len(self.devices):
            candidate = self.devices[position]
            if candidate.device_id == device_id:
                return candidate
        # Index went stale (external list surgery) — rebuild once and retry.
        self._reindex()
        position = self._device_index.get(device_id)
        if position is not None:
            return self.devices[position]
        raise ConfigurationError(f"no device with id {device_id} in the fleet")

    def provision(
        self, n_devices: int, profiles: Optional[Sequence[DeviceProfile]] = None
    ) -> List[FleetDevice]:
        """Add ``n_devices`` fresh devices, cycling through the profile list."""
        if n_devices <= 0:
            raise ConfigurationError(f"n_devices must be positive, got {n_devices}")
        pool = tuple(profiles) if profiles else self.profiles
        created = []
        next_id = max((d.device_id for d in self.devices), default=-1) + 1
        for index in range(n_devices):
            profile = pool[index % len(pool)]
            device = FleetDevice(next_id + index, EdgeDevice(profile))
            self._device_index[device.device_id] = len(self.devices)
            self.devices.append(device)
            created.append(device)
        logger.info("provisioned %d devices (%d total)", n_devices, len(self.devices))
        return created

    def deploy(self, package: TransferPackage, rollout=None) -> None:
        """Deploy one transfer package across the fleet.

        Without a ``rollout`` policy this is the historical broadcast: every
        not-yet-deployed device receives the package at once.  With one — a
        :class:`~repro.serving.rollout.RolloutPolicy` instance or registry
        name (``"all-at-once"``, ``"staged"``, ``"ab"``) — the policy plans
        which devices receive the package at which stage; stage 0 is applied
        immediately and :meth:`advance_rollout` applies the rest.  Cohort
        labels from the plan feed :meth:`rollout_report`.
        """
        if not self.devices:
            raise ConfigurationError("provision() must run before deploy()")
        if rollout is None:
            targets = [d for d in self.devices if not d.is_deployed]
            self._deploy_to(targets, package)
            self._rollout = None
        else:
            from repro.serving.rollout import ActiveRollout, make_rollout_policy

            policy = make_rollout_policy(rollout)
            plan = policy.plan([d.device_id for d in self.devices], self._root_rng)
            self._deploy_to([self.device(i) for i in plan.stages[0]], package)
            self._rollout = ActiveRollout(policy=policy, plan=plan, package=package)
            logger.info(
                "rollout %r: stage 0/%d deployed to %d devices",
                policy.name,
                plan.n_stages,
                len(plan.stages[0]),
            )
        self.package = package

    def _deploy_to(self, targets: Sequence[FleetDevice], package: TransferPackage) -> None:
        seeds = spawn_rngs(self._root_rng, len(targets))
        for device, device_rng in zip(targets, seeds):
            device.deploy(package, self.config, seed=device_rng)
        self.transfers.record_deploy(package.total_bytes, len(targets))
        logger.info(
            "deployed %.2f KB package to %d devices",
            package.total_bytes / 1024,
            len(targets),
        )

    # ------------------------------------------------------------------ #
    # staged rollout
    # ------------------------------------------------------------------ #
    @property
    def active_rollout(self):
        """The rollout in progress, or ``None``."""
        return self._rollout

    def cohort_of(self, device_id: int) -> Optional[str]:
        """Rollout cohort label of one device (``None`` without a rollout)."""
        if self._rollout is None:
            return None
        return self._rollout.plan.cohorts.get(int(device_id))

    def advance_rollout(self) -> List[int]:
        """Deploy the next rollout stage; returns the newly deployed ids.

        Returns an empty list once the plan is exhausted (the rollout stays
        recorded for cohort reporting).  Raises
        :class:`~repro.exceptions.ConfigurationError` when no rollout is
        active.
        """
        if self._rollout is None:
            raise ConfigurationError("no rollout in progress; deploy(..., rollout=...) first")
        if self._rollout.complete:
            return []
        stage = self._rollout.plan.stages[self._rollout.next_stage]
        self._deploy_to([self.device(i) for i in stage], self._rollout.package)
        self._rollout.next_stage += 1
        logger.info(
            "rollout %r: stage %d/%d deployed to %d devices",
            self._rollout.policy.name,
            self._rollout.next_stage - 1,
            self._rollout.plan.n_stages,
            len(stage),
        )
        return list(stage)

    def rollout_report(self, dataset: Optional[HARDataset] = None, serving=None):
        """Per-cohort accuracy and latency across the current rollout.

        ``dataset`` (optional) is evaluated on every *deployed* device's
        learner for per-cohort accuracy; ``serving`` (an optional
        :class:`~repro.serving.report.RoutingReport`, e.g.
        ``client.report()``) contributes per-cohort request counts and
        mean/p99 simulated latency.
        """
        from repro.serving.rollout import CohortReport, RolloutReport

        if self._rollout is None:
            raise ConfigurationError("no rollout in progress; deploy(..., rollout=...) first")
        cohorts = self._rollout.plan.cohorts
        report = RolloutReport(policy=self._rollout.policy.name)
        for device in self.devices:
            cohort = cohorts.get(device.device_id)
            if cohort is None:
                continue
            row = report.per_cohort.setdefault(
                cohort, CohortReport(cohort=cohort, device_ids=[], n_deployed=0)
            )
            row.device_ids.append(device.device_id)
            if device.is_deployed:
                row.n_deployed += 1
        if dataset is not None:
            for row in report.per_cohort.values():
                accuracies = [
                    self.device(i).accuracy(dataset)
                    for i in row.device_ids
                    if self.device(i).is_deployed
                ]
                row.accuracy = float(np.mean(accuracies)) if accuracies else None
        if serving is not None:
            for row in report.per_cohort.values():
                stats = [
                    serving.per_device[i]
                    for i in row.device_ids
                    if i in serving.per_device
                ]
                row.requests = int(sum(s.requests for s in stats))
                if row.requests:
                    row.mean_latency_seconds = (
                        sum(s.total_latency_seconds for s in stats) / row.requests
                    )
                latencies = [l for s in stats for l in s.latencies]
                if latencies:
                    row.p99_latency_seconds = float(
                        np.percentile(np.asarray(latencies), 99.0)
                    )
        return report

    def replace_device(self, device_id: int, replacement: FleetDevice) -> FleetDevice:
        """Swap a (crashed) device for its replacement, keeping the id slot."""
        current = self.device(device_id)  # raises ConfigurationError when absent
        position = self._device_index[current.device_id]
        self.devices[position] = replacement
        del self._device_index[current.device_id]
        self._device_index[replacement.device_id] = position
        return replacement

    # ------------------------------------------------------------------ #
    # staggered incremental updates
    # ------------------------------------------------------------------ #
    def schedule_increment(
        self,
        device_id: int,
        tick: int,
        new_train: HARDataset,
        new_validation: Optional[HARDataset] = None,
    ) -> None:
        """Queue an incremental update for one device at a simulation tick."""
        self.device(device_id)  # validate the id eagerly
        self._pending_increments.append((int(tick), device_id, new_train, new_validation))

    def pending_increments(self) -> List[Tuple[int, int]]:
        """``(tick, device_id)`` pairs still waiting to run."""
        return [(tick, device_id) for tick, device_id, _, _ in self._pending_increments]

    def run_due_increments(self, tick: int) -> Dict[int, TrainingHistory]:
        """Run every queued increment whose tick has arrived."""
        due = [entry for entry in self._pending_increments if entry[0] <= tick]
        self._pending_increments = [
            entry for entry in self._pending_increments if entry[0] > tick
        ]
        histories: Dict[int, TrainingHistory] = {}
        for _, device_id, new_train, new_validation in sorted(due, key=lambda e: e[:2]):
            device = self.device(device_id)
            histories[device_id] = device.learn_new_activity(new_train, new_validation)
            logger.info(
                "device %d integrated %d new-class samples at tick %d",
                device_id,
                new_train.n_samples,
                tick,
            )
        return histories

    # ------------------------------------------------------------------ #
    def accuracy_report(self, dataset: HARDataset) -> FleetAccuracyReport:
        """Per-device accuracy on one test set — the fleet divergence view."""
        if not self.devices:
            raise ConfigurationError("the fleet has no devices")
        return FleetAccuracyReport(
            per_device={d.device_id: d.accuracy(dataset) for d in self.devices}
        )

    def describe(self) -> List[Dict[str, object]]:
        return [device.describe() for device in self.devices]


@dataclass
class RegionCoordinator:
    """One shard of the hierarchical fleet: a contiguous id range ``[start, stop)``.

    Every device in the region shares the region's device profile and — until
    it drifts — the region's pooled copy-on-write template learner, served
    through one synthetic serving lane (a :class:`FleetDevice` carrying a
    *negative* id so it can never collide with a real device id, which are
    always ≥ 0).  Devices that drift away from the template (a scheduled
    increment, a checkpoint probe) are *materialised* into ``materialized``
    and served individually from then on.
    """

    region_id: int
    start: int
    stop: int
    profile: DeviceProfile
    lane: Optional[FleetDevice] = None
    materialized: Dict[int, FleetDevice] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lane is None:
            self.lane = FleetDevice(-(self.region_id + 1), EdgeDevice(self.profile))

    @property
    def n_devices(self) -> int:
        return self.stop - self.start

    @property
    def n_pooled(self) -> int:
        """Devices still served from the pooled template."""
        return self.n_devices - len(self.materialized)

    def owns(self, device_id: int) -> bool:
        return self.start <= int(device_id) < self.stop

    def describe(self) -> Dict[str, object]:
        return {
            "region_id": self.region_id,
            "device_range": (self.start, self.stop),
            "profile": self.profile.name,
            "n_devices": self.n_devices,
            "n_pooled": self.n_pooled,
            "materialized": sorted(self.materialized),
        }


class HierarchicalFleetCoordinator(FleetCoordinator):
    """A fleet restructured as a tree of :class:`RegionCoordinator` shards.

    The flat :class:`FleetCoordinator` materialises one learner per device,
    which stops being tractable somewhere past a few thousand devices (a
    million devices would hold a million copies of the same support set).
    The hierarchical coordinator exploits that devices which received the
    same broadcast and ran the same increments are *bit-identical*: each
    region serves its devices from one pooled template learner instantiated
    copy-on-write from the :class:`~repro.edge.transfer.TransferPackage`
    (``copy_arrays=False``), and only devices that actually diverge are
    materialised.  Memory scales with the number of *distinct states*
    (regions + drifted devices), not with device count, and one broadcast
    ships one package per region instead of one per device.

    Compatibility with the flat coordinator:

    - ``device(i)`` materialises device ``i`` on demand; the materialised
      learner trains from the *same* spawned RNG stream flat device ``i``
      would use, so a small fleet run hierarchically is bit-exact with the
      flat coordinator (``benchmarks/bench_fleet_scale.py`` gates on this).
    - ``schedule_increment``/``run_due_increments`` are inherited unchanged —
      validation materialises the target device.
    - ``deploy(..., rollout=...)`` stages over *regions* (device-granular
      policies that route users, e.g. ``"ab"``, are rejected).
    - ``accuracy_report`` evaluates each distinct state once and weights it
      by device multiplicity.

    Serving integrates through :meth:`serving_lanes` (one lane per region
    plus every materialised device) and :meth:`lane_map`, which
    :class:`~repro.serving.routing.RegionalRouting` uses to keep user → device
    hashing identical to the flat fleet's ``"hash"`` policy.
    """

    def __init__(
        self,
        config: Optional[PiloteConfig] = None,
        *,
        profiles: Optional[Sequence[DeviceProfile]] = None,
        seed: RandomState = None,
        n_regions: Optional[int] = None,
    ) -> None:
        super().__init__(config, profiles=profiles, seed=seed)
        self.regions: List[RegionCoordinator] = []
        self.requested_regions = n_regions
        self._n_devices = 0
        self._region_size = 0
        self._device_seeds: Optional[np.ndarray] = None
        self._lanes: Optional[List[FleetDevice]] = None

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n_devices

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def provision(
        self, n_devices: int, profiles: Optional[Sequence[DeviceProfile]] = None
    ) -> List[RegionCoordinator]:
        """Shard ``n_devices`` ids into regions; returns the region list.

        Unlike the flat coordinator a hierarchical fleet is provisioned
        exactly once — regions own contiguous id ranges, so growing the fleet
        later would reshuffle ownership.  Profiles cycle per *region* (every
        device in a region shares its profile; pooling requires it).
        """
        if self.regions:
            raise ConfigurationError("a hierarchical fleet is provisioned exactly once")
        if n_devices <= 0:
            raise ConfigurationError(f"n_devices must be positive, got {n_devices}")
        pool = tuple(profiles) if profiles else self.profiles
        requested = self.requested_regions if self.requested_regions else min(64, n_devices)
        if requested <= 0:
            raise ConfigurationError(f"n_regions must be positive, got {requested}")
        requested = min(int(requested), int(n_devices))
        self._region_size = -(-int(n_devices) // requested)  # ceil division
        n_regions = -(-int(n_devices) // self._region_size)
        for region_id in range(n_regions):
            start = region_id * self._region_size
            stop = min(start + self._region_size, int(n_devices))
            self.regions.append(
                RegionCoordinator(region_id, start, stop, pool[region_id % len(pool)])
            )
        self._n_devices = int(n_devices)
        logger.info(
            "provisioned %d devices across %d regions (<= %d devices each)",
            n_devices,
            n_regions,
            self._region_size,
        )
        return list(self.regions)

    # ------------------------------------------------------------------ #
    def deploy(self, package: TransferPackage, rollout=None) -> None:
        """Broadcast the package region-by-region (one shipment per region)."""
        if not self.regions:
            raise ConfigurationError("provision() must run before deploy()")
        if self._device_seeds is None:
            # The exact draw the flat coordinator's spawn_rngs() would make
            # for a full broadcast, so materialised device i trains from the
            # identical RNG stream as flat device i (bit-exact equivalence).
            self._device_seeds = self._root_rng.integers(
                0, 2**63 - 1, size=self._n_devices, dtype=np.int64
            )
        if rollout is None:
            self._deploy_regions(self.regions, package)
            self._rollout = None
        else:
            from repro.serving.rollout import ActiveRollout, make_rollout_policy

            policy = make_rollout_policy(rollout)
            if policy.routes_users:
                raise ConfigurationError(
                    f"rollout policy {policy.name!r} routes individual users and "
                    "cannot drive a region-granular hierarchical rollout"
                )
            plan = policy.plan([r.region_id for r in self.regions], self._root_rng)
            self._deploy_regions([self.regions[i] for i in plan.stages[0]], package)
            self._rollout = ActiveRollout(policy=policy, plan=plan, package=package)
            logger.info(
                "rollout %r: stage 0/%d deployed to %d regions",
                policy.name,
                plan.n_stages,
                len(plan.stages[0]),
            )
        self.package = package

    def _deploy_regions(
        self, regions: Sequence[RegionCoordinator], package: TransferPackage
    ) -> None:
        for region in regions:
            if not region.lane.is_deployed:
                region.lane.deploy(package, self.config, seed=0, copy_arrays=False)
            for device in region.materialized.values():
                if not device.is_deployed:
                    device.deploy(
                        package,
                        self.config,
                        seed=resolve_rng(
                            int(self._device_seeds[device.device_id])
                        ),
                        copy_arrays=False,
                    )
        self.transfers.record_deploy(package.total_bytes, len(regions))
        logger.info(
            "deployed %.2f KB package to %d regions",
            package.total_bytes / 1024,
            len(regions),
        )

    def advance_rollout(self) -> List[int]:
        """Deploy the next rollout stage; returns the newly deployed region ids."""
        if self._rollout is None:
            raise ConfigurationError("no rollout in progress; deploy(..., rollout=...) first")
        if self._rollout.complete:
            return []
        stage = self._rollout.plan.stages[self._rollout.next_stage]
        self._deploy_regions([self.regions[i] for i in stage], self._rollout.package)
        self._rollout.next_stage += 1
        return list(stage)

    def cohort_of(self, device_id: int) -> Optional[str]:
        """Rollout cohort of a device — its *region's* cohort label."""
        if self._rollout is None:
            return None
        return self._rollout.plan.cohorts.get(self.region_of(device_id).region_id)

    def rollout_report(self, dataset=None, serving=None):
        raise ConfigurationError(
            "per-device rollout reports are not available on a hierarchical fleet; "
            "use cohort_of() and describe() for region-level rollout state"
        )

    # ------------------------------------------------------------------ #
    def region_of(self, device_id: int) -> RegionCoordinator:
        """The region owning a (non-negative) device id."""
        device_id = int(device_id)
        if not 0 <= device_id < self._n_devices:
            raise ConfigurationError(f"no device with id {device_id} in the fleet")
        return self.regions[device_id // self._region_size]

    def device(self, device_id: int) -> FleetDevice:
        """Materialise (or fetch) one device out of its region's pool.

        The materialised learner is instantiated copy-on-write from the
        deployed package with the same per-device RNG stream the flat
        coordinator would have spawned, so everything downstream (increments,
        checkpoints, serving) behaves exactly as on a flat fleet.
        Materialisation is frozen once :meth:`serving_lanes` ran — new lanes
        would invalidate the routing table.
        """
        region = self.region_of(device_id)
        device_id = int(device_id)
        existing = region.materialized.get(device_id)
        if existing is not None:
            return existing
        if self._lanes is not None:
            raise ConfigurationError(
                "cannot materialise new devices after serving_lanes() froze the "
                "lane set; materialise (e.g. schedule increments) before serving"
            )
        device = FleetDevice(device_id, EdgeDevice(region.profile))
        if region.lane.is_deployed and self.package is not None:
            device.deploy(
                self.package,
                self.config,
                seed=resolve_rng(int(self._device_seeds[device_id])),
                copy_arrays=False,
            )
        region.materialized[device_id] = device
        return device

    def replace_device(self, device_id: int, replacement: FleetDevice) -> FleetDevice:
        """Swap a materialised (crashed) device for its replacement."""
        device_id = int(device_id)
        region = self.region_of(device_id)
        current = region.materialized.get(device_id)
        if current is None:
            raise ConfigurationError(
                f"device {device_id} is not materialised; only materialised "
                "devices can be replaced"
            )
        del region.materialized[device_id]
        region.materialized[int(replacement.device_id)] = replacement
        if self._lanes is not None:
            # In-place swap so the scheduler, which shares this list, sees it.
            self._lanes[self._lanes.index(current)] = replacement
        return replacement

    # ------------------------------------------------------------------ #
    # serving integration
    # ------------------------------------------------------------------ #
    def serving_lanes(self) -> List[FleetDevice]:
        """Freeze and return the serving lanes: region lanes, then drifted devices.

        Every region contributes its pooled template lane (position =
        ``region_id``), followed by all materialised devices in id order.
        :func:`repro.serving.client.serve` passes this list to the scheduler;
        the first call freezes materialisation so :meth:`lane_map` stays valid.
        """
        if self._lanes is None:
            lanes = [region.lane for region in self.regions]
            for region in self.regions:
                lanes.extend(region.materialized[i] for i in sorted(region.materialized))
            self._lanes = lanes
        return self._lanes

    def lane_map(self) -> np.ndarray:
        """``device id → serving-lane position`` (int64 vector of length N).

        Pooled devices map to their region's lane; materialised devices map
        to their own lane.  :class:`~repro.serving.routing.RegionalRouting`
        indexes this array with the hashed user id, which keeps the user →
        *device* assignment identical to flat ``"hash"`` routing — the lane
        merely serves whichever state that device currently holds.
        """
        lanes = self.serving_lanes()
        positions = {lane.device_id: pos for pos, lane in enumerate(lanes)}
        mapping = np.arange(self._n_devices, dtype=np.int64) // self._region_size
        for region in self.regions:
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
            if region.lane.is_deployed and region.n_pooled > 0:
                per_device[region.lane.device_id] = region.lane.accuracy(dataset)
                weights[region.lane.device_id] = float(region.n_pooled)
            for device_id in sorted(region.materialized):
                device = region.materialized[device_id]
                if device.is_deployed:
                    per_device[device_id] = device.accuracy(dataset)
                    weights[device_id] = 1.0
        if not per_device:
            raise ConfigurationError("no deployed devices to evaluate; deploy() first")
        return FleetAccuracyReport(per_device=per_device, weights=weights)

    def describe(self) -> List[Dict[str, object]]:
        return [region.describe() for region in self.regions]


#: Short alias used in examples and docs.
Fleet = FleetCoordinator
