"""End-to-end fleet simulation: one cloud broadcast, many drifting devices.

This is the fleet-level counterpart of the paper's single-device pipeline and
the runner behind the ``pilote fleet-sim`` CLI subcommand:

1. the cloud pre-trains on the old activities and exports one
   :class:`~repro.edge.transfer.TransferPackage`;
2. the coordinator provisions N devices and deploys the package to each;
3. a seeded open-loop traffic stream (Zipf/bursty/uniform) is sharded across
   the fleet by user id while, at staggered ticks, each device integrates the
   held-out activity from its *own* share of the new-class data;
4. the run reports per-device serving stats, the fleet's aggregate simulated
   throughput, the per-device accuracy divergence, and a checkpoint → restore
   round-trip check on one device.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.data.streams import build_incremental_scenario
from repro.edge.cloud import CloudServer
from repro.evaluation.scenarios import FLEET_SCENARIO, FleetScenarioSpec
from repro.exceptions import ConfigurationError
from repro.experiments.common import ExperimentSettings, make_dataset
from repro.fleet.checkpoint import CheckpointStore
from repro.fleet.coordinator import (
    FleetAccuracyReport,
    FleetCoordinator,
    HierarchicalFleetCoordinator,
)
from repro.fleet.traffic import TrafficGenerator, WorkloadSpec, staggered_schedule
from repro.utils.logging import get_logger
from repro.utils.rng import resolve_rng, spawn_rngs

if TYPE_CHECKING:  # the serving package imports repro.fleet at load time
    from repro.serving.report import RoutingReport

logger = get_logger("fleet.simulation")

#: Past this many devices the simulation switches to the hierarchical
#: coordinator automatically (one pooled template per region, only drifting
#: devices materialised) — the flat one-learner-per-device model would not
#: fit in memory at, say, a million devices.
HIERARCHICAL_DEVICE_THRESHOLD = 1024

#: How many devices of a hierarchical fleet actually drift (receive a
#: staggered increment and are therefore materialised).  Spread evenly over
#: the id range; device 0 is always included so the checkpoint probe runs.
HIERARCHICAL_DRIFT_DEVICES = 16


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    # Linux reports kilobytes; macOS reports bytes.  Normalise heuristically.
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak * 1024 if peak < 2**40 else peak


@dataclass
class FleetSimulationResult:
    """Everything one fleet simulation run produced."""

    n_devices: int
    routing: RoutingReport
    accuracy: FleetAccuracyReport
    increment_ticks: Dict[int, int]
    increment_samples: Dict[int, int]
    checkpoint_roundtrip_exact: bool
    device_rows: List[Dict[str, object]] = field(default_factory=list)
    routing_policy: str = "hash"
    scheduling_order: str = "fifo"
    deadline_ms: Optional[float] = None
    executor_name: str = "serial"
    n_regions: Optional[int] = None
    control_stats: Optional[Dict[str, object]] = None
    peak_rss_bytes: int = 0
    deploy_bytes: int = 0
    deploy_shipments: int = 0
    resync_bytes: int = 0
    resync_full: int = 0
    resync_delta: int = 0

    def to_text(self) -> str:
        # Concurrent executors measure real elapsed time; the serial default
        # models device-seconds on the simulated parallel clock.
        clock_note = (
            "measured wall clock" if self.routing.clock == "wall"
            else "simulated, devices in parallel"
        )
        region_note = (
            "" if self.n_regions is None else f" in {self.n_regions} regions"
        )
        lines = [
            "Fleet simulation: multi-device serving with staggered increments",
            "",
            f"devices: {self.n_devices}{region_note}  "
            f"(routing policy: {self.routing_policy}, "
            f"scheduling: {self.scheduling_order}, executor: {self.executor_name})",
            f"requests routed: {int(self.routing.total_requests)} "
            f"({int(self.routing.total_windows)} windows)",
            f"aggregate throughput: {self.routing.aggregate_throughput:.0f} windows/s "
            f"({clock_note})",
            f"p99 latency: {self.routing.p99_latency_seconds * 1e3:.2f} ms "
            f"({self.routing.clock})",
        ]
        breakdown = self.routing.deadline_breakdown()
        if self.deadline_ms is not None or breakdown["expired"] or breakdown["missed"]:
            lines.append(
                f"deadline SLO: {breakdown['served']} served in deadline, "
                f"{breakdown['missed']} missed, {breakdown['expired']} expired, "
                f"{breakdown['failed']} failed "
                f"(attainment {self.routing.deadline_attainment:.4f})"
            )
        if self.control_stats is not None:
            shed = self.routing.total_shed
            cancelled = self.routing.total_cancelled
            hedging = self.control_stats.get("hedging", {})
            autoscaler = self.control_stats.get("autoscaler", {})
            lines.append(
                "control plane: "
                f"{', '.join(self.control_stats.get('controllers', []))}; "
                f"shed {shed}, hedges {hedging.get('fired', 0)} "
                f"(cancelled {cancelled}), "
                f"resizes {autoscaler.get('actions', 0)}"
            )
        lines.extend([
            "",
            f"{'device':>7}{'profile':>14}{'requests':>10}{'throughput':>12}"
            f"{'latency ms':>12}{'queue':>7}{'inc@tick':>9}{'accuracy':>10}",
        ])
        for row in self.device_rows:
            lines.append(
                f"{row['device_id']:>7}{row['profile']:>14}{row['requests']:>10}"
                f"{row['throughput']:>12.0f}{row['mean_latency_ms']:>12.2f}"
                f"{row['max_queue_depth']:>7}{row['increment_tick']:>9}"
                f"{row['accuracy']:>10.4f}"
            )
        resync_note = (
            f"; executor re-sync {self.resync_bytes / 2**20:.2f} MB "
            f"({self.resync_full} full, {self.resync_delta} delta)"
            if self.resync_full or self.resync_delta
            else ""
        )
        lines.extend(
            [
                "",
                f"memory: peak RSS {self.peak_rss_bytes / 2**20:.1f} MB; "
                f"deploy shipped {self.deploy_bytes / 2**20:.2f} MB in "
                f"{self.deploy_shipments} shipments{resync_note}",
            ]
        )
        summary = self.accuracy.summary()
        lines.extend(
            [
                "",
                "per-device accuracy divergence after staggered increments:",
                f"  mean {summary['mean']:.4f}, std {summary['std']:.4f}, "
                f"spread (max-min) {summary['spread']:.4f}",
                f"checkpoint/restore round-trip reproduces predictions: "
                f"{self.checkpoint_roundtrip_exact}",
            ]
        )
        return "\n".join(lines)


def run(
    settings: Optional[ExperimentSettings] = None,
    *,
    scenario: FleetScenarioSpec = FLEET_SCENARIO,
    n_devices: Optional[int] = None,
    routing: Optional[str] = None,
    scheduling: Optional[str] = None,
    deadline_ms: Optional[float] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    regions: Optional[int] = None,
    adaptive: bool = False,
) -> FleetSimulationResult:
    """Run one fleet simulation at the given experiment scale.

    ``routing`` picks the serving client's routing policy (``"hash"``,
    ``"least-loaded"``, ``"p2c"``); the default comes from the scenario.
    ``scheduling`` picks the queue order (``"fifo"`` or ``"edf"``) and
    ``deadline_ms`` attaches seeded per-request deadlines to the traffic
    (mean relative deadline in simulated milliseconds, mixed over
    urgent/normal/relaxed classes) so the run reports a deadline SLO
    breakdown.  ``executor`` picks where batches execute (``"serial"``
    inline on the simulated clock — the default — ``"thread"``, or
    ``"process"`` for a pool of ``workers`` real worker processes; the
    report's throughput/latency lines then carry measured wall-clock
    numbers instead of the simulated parallel clock).  ``regions`` forces the
    hierarchical coordinator with that many regional shards; without it, the
    simulation switches to hierarchical mode automatically past
    :data:`HIERARCHICAL_DEVICE_THRESHOLD` devices (which is what makes
    ``pilote fleet-sim --devices 1000000`` tractable).
    """
    settings = settings or ExperimentSettings.default()
    if n_devices is None:
        n_devices = scenario.n_devices
    if n_devices <= 0:
        raise ConfigurationError(f"n_devices must be positive, got {n_devices}")
    routing = routing or scenario.routing_policy
    scheduling = scheduling or "fifo"
    if deadline_ms is not None and deadline_ms <= 0:
        raise ConfigurationError(f"deadline_ms must be positive, got {deadline_ms}")
    if deadline_ms is not None and executor not in (None, "serial"):
        # The generated traffic anchors arrivals (and therefore absolute
        # deadlines) on the simulated tick clock, while thread/process
        # executors serve on the accumulating measured wall clock — mixing
        # the two would mass-expire every request after the first drain and
        # report a meaningless SLO.  Fail loudly instead.
        raise ConfigurationError(
            "deadline_ms requires the serial executor: the simulation's "
            "arrivals/deadlines are simulated-clock quantities, while "
            f"executor={executor!r} serves on the measured wall clock"
        )
    rng = resolve_rng(settings.seed)
    dataset = make_dataset(settings, rng=rng)
    data_scenario = build_incremental_scenario(
        dataset, [int(c) for c in scenario.new_classes], rng=rng
    )

    # 1. One cloud pre-training, one package for the whole fleet.
    cloud = CloudServer(settings.config, seed=settings.seed)
    cloud.pretrain(
        data_scenario.old_train,
        data_scenario.old_validation,
        exemplars_per_class=settings.exemplars_per_class,
    )
    package = cloud.export_package()

    # 2. Provision and deploy.
    hierarchical = regions is not None or n_devices > HIERARCHICAL_DEVICE_THRESHOLD
    if hierarchical:
        fleet: FleetCoordinator = HierarchicalFleetCoordinator(
            settings.config, seed=settings.seed, n_regions=regions
        )
    else:
        fleet = FleetCoordinator(settings.config, seed=settings.seed)
    fleet.provision(n_devices)
    fleet.deploy(package)

    # 3. Staggered increments: device i learns the new activity at its own
    #    tick from its own subsample, so the fleet genuinely drifts apart.
    #    Hierarchically only a fixed-size drift cohort (spread over the id
    #    range, always including device 0 for the checkpoint probe) gets an
    #    increment — scheduling one per device would materialise the whole
    #    fleet and defeat the pooling.
    if hierarchical:
        drift_ids = np.unique(
            np.linspace(
                0, n_devices - 1, num=min(n_devices, HIERARCHICAL_DRIFT_DEVICES)
            ).astype(np.int64)
        )
        schedule = {
            int(device_id): scenario.stagger_start_tick
            + rank * scenario.stagger_spacing_ticks
            for rank, device_id in enumerate(drift_ids)
        }
        increment_rngs = spawn_rngs(settings.seed, len(drift_ids))
        fractions = np.linspace(scenario.min_increment_fraction, 1.0, len(drift_ids))
        ranks = {int(device_id): rank for rank, device_id in enumerate(drift_ids)}
    else:
        schedule = staggered_schedule(
            n_devices,
            start_tick=scenario.stagger_start_tick,
            spacing_ticks=scenario.stagger_spacing_ticks,
        )
        increment_rngs = spawn_rngs(settings.seed, n_devices)
        fractions = np.linspace(scenario.min_increment_fraction, 1.0, n_devices)
        ranks = {device_id: device_id for device_id in schedule}
    increment_samples: Dict[int, int] = {}
    for device_id, tick in schedule.items():
        rank = ranks[device_id]
        n_samples = max(int(data_scenario.new_train.n_samples * fractions[rank]), 2)
        share = data_scenario.new_train.subsample(n_samples, rng=increment_rngs[rank])
        increment_samples[device_id] = share.n_samples
        fleet.schedule_increment(device_id, tick, share)

    # 4. Serve the open-loop traffic through the unified client's event-loop
    #    scheduler, applying increments at tick boundaries as they fall due.
    from repro.serving.client import serve  # deferred: serving imports fleet

    workload = WorkloadSpec(
        pattern=scenario.traffic_pattern,
        n_users=scenario.n_users,
        requests_per_tick=scenario.requests_per_tick,
        n_ticks=scenario.n_ticks,
        deadline_seconds=None if deadline_ms is None else deadline_ms / 1e3,
        # Urgent / normal / relaxed mix, so EDF has classes to discriminate.
        deadline_multipliers=(0.5, 1.0, 4.0),
    )
    traffic = TrafficGenerator(data_scenario.test, workload, seed=settings.seed)
    client = serve(
        fleet, routing=routing, scheduling=scheduling, seed=settings.seed,
        executor=executor, workers=workers, adaptive=adaptive,
    )
    try:
        for tick_index, requests in enumerate(traffic.ticks()):
            fleet.run_due_increments(tick_index)
            client.submit_many(requests)
            client.drain()  # per-tick drain keeps increments ordered between ticks
        fleet.run_due_increments(max(schedule.values()))  # anything past the stream
        routing_report = client.report()
        control_stats = client.control_stats()
        executor_instance = client.scheduler.executor
    finally:
        client.close()  # release executor worker pools, if any
    # Counters survive close(); an executor without them reports zeros.
    resync = getattr(executor_instance, "sync_stats", lambda: {})()

    # 5. Fleet-level evaluation + a crash/replace round-trip on device 0.
    accuracy = fleet.accuracy_report(data_scenario.test)
    probe = data_scenario.test.features[: min(256, data_scenario.test.n_samples)]
    device0 = fleet.device(0)
    with tempfile.TemporaryDirectory() as scratch:
        store = CheckpointStore(scratch)
        checkpoint = store.save(device0)
        restored = store.restore(checkpoint)
        roundtrip_exact = bool(
            np.array_equal(device0.infer(probe), restored.infer(probe))
        )

    device_rows = []
    if isinstance(fleet, HierarchicalFleetCoordinator):
        # One row per serving lane: pooled region lanes first (labelled by
        # region and multiplicity), then the materialised (drifted) devices.
        for lane in fleet.serving_lanes():
            stats = routing_report.per_device[lane.device_id]
            pooled = lane.device_id < 0
            region = (
                fleet.regions[-lane.device_id - 1]
                if pooled
                else fleet.region_of(lane.device_id)
            )
            device_rows.append(
                {
                    "device_id": (
                        f"R{region.region_id}x{region.n_pooled}"
                        if pooled
                        else lane.device_id
                    ),
                    "profile": lane.profile.name,
                    "requests": stats.requests,
                    "throughput": stats.throughput,
                    "mean_latency_ms": stats.mean_latency_seconds * 1e3,
                    "max_queue_depth": stats.max_queue_depth,
                    "increment_tick": schedule.get(lane.device_id, "-"),
                    "accuracy": accuracy.per_device.get(lane.device_id, float("nan")),
                }
            )
    else:
        for device in fleet.devices:
            stats = routing_report.per_device[device.device_id]
            device_rows.append(
                {
                    "device_id": device.device_id,
                    "profile": device.profile.name,
                    "requests": stats.requests,
                    "throughput": stats.throughput,
                    "mean_latency_ms": stats.mean_latency_seconds * 1e3,
                    "max_queue_depth": stats.max_queue_depth,
                    "increment_tick": schedule[device.device_id],
                    "accuracy": accuracy.per_device[device.device_id],
                }
            )
    logger.info(
        "fleet simulation: %d devices, %.0f windows/s aggregate, accuracy spread %.4f",
        n_devices,
        routing_report.aggregate_throughput,
        accuracy.spread,
    )
    return FleetSimulationResult(
        n_devices=n_devices,
        routing=routing_report,
        accuracy=accuracy,
        increment_ticks=dict(schedule),
        increment_samples=increment_samples,
        checkpoint_roundtrip_exact=roundtrip_exact,
        device_rows=device_rows,
        routing_policy=client.routing,
        scheduling_order=client.scheduling,
        deadline_ms=deadline_ms,
        executor_name=client.executor,
        n_regions=(
            fleet.n_regions if isinstance(fleet, HierarchicalFleetCoordinator) else None
        ),
        peak_rss_bytes=_peak_rss_bytes(),
        deploy_bytes=fleet.transfers.deploy_bytes,
        deploy_shipments=fleet.transfers.deploy_shipments,
        resync_bytes=int(resync.get("bytes_shipped", 0)),
        resync_full=int(resync.get("full_syncs", 0)),
        resync_delta=int(resync.get("delta_syncs", 0)),
        control_stats=control_stats,
    )
