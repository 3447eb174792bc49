"""Fleet serving: multi-device orchestration, routing, traffic, checkpoints.

The paper ships one pre-trained model to one edge device; this package scales
that architecture out to a *fleet* behind a single cloud broadcast:

* :class:`FleetCoordinator` provisions N devices from heterogeneous
  :class:`~repro.edge.device.DeviceProfile`s, deploys one
  :class:`~repro.edge.transfer.TransferPackage` to all of them (each device
  gets an independent learner) and schedules staggered per-device increments;
* :class:`TrafficGenerator` produces deterministic open-loop workloads
  (uniform, bursty, Zipf-skewed user populations);
* :class:`CheckpointStore` snapshots device state (full or delta archives),
  evicts under a storage budget, and restores state onto a fresh device
  (crash/replace, elasticity);
* :class:`HierarchicalFleetCoordinator` scales the same architecture to a
  million devices: regions (:class:`RegionCoordinator`) serve pooled
  copy-on-write template state behind one lane each, only drifting devices
  are materialised, and broadcasts ship one package per region
  (:class:`TransferLedger` accounts the bytes).

Entry points: ``MagnetoPlatform.to_fleet(n)``, the ``pilote fleet-sim`` CLI
subcommand, ``examples/fleet_simulation.py`` and
``benchmarks/bench_fleet.py``.

Serving goes through :mod:`repro.serving`: ``serve(fleet)`` builds a
futures-based client whose event-loop scheduler shards requests across the
devices (by user id under the default ``"hash"`` routing), batches them
through each device's :class:`~repro.edge.inference.InferenceEngine` and
records per-device statistics on a simulated parallel clock, with pluggable
routing policies and rollout staging on ``FleetCoordinator.deploy``.
"""

from repro.fleet.checkpoint import CheckpointStore, DeviceCheckpoint
from repro.fleet.coordinator import (
    Fleet,
    FleetAccuracyReport,
    FleetCoordinator,
    FleetDevice,
    HierarchicalFleetCoordinator,
    RegionCoordinator,
    TransferLedger,
)
from repro.fleet.simulation import FleetSimulationResult
from repro.fleet.traffic import (
    InferenceRequest,
    TrafficGenerator,
    WorkloadSpec,
    staggered_schedule,
)

__all__ = [
    "Fleet",
    "FleetCoordinator",
    "FleetDevice",
    "FleetAccuracyReport",
    "HierarchicalFleetCoordinator",
    "RegionCoordinator",
    "TransferLedger",
    "TrafficGenerator",
    "WorkloadSpec",
    "InferenceRequest",
    "staggered_schedule",
    "CheckpointStore",
    "DeviceCheckpoint",
    "FleetSimulationResult",
]
