"""Fleet serving: multi-device orchestration, routing, traffic, checkpoints.

The paper ships one pre-trained model to one edge device; this package scales
that architecture out to a *fleet* behind a single cloud broadcast:

* :class:`FleetCoordinator` provisions N devices from heterogeneous
  :class:`~repro.edge.device.DeviceProfile`s, deploys one
  :class:`~repro.edge.transfer.TransferPackage` to all of them (each device
  gets an independent learner) and schedules staggered per-device increments.
  Devices live in regions (:class:`RegionCoordinator`); with ``n_regions``
  the same class scales to a million devices: regions serve pooled
  copy-on-write template state behind one lane each, only drifting devices
  are materialised, and broadcasts ship one package per region
  (:class:`TransferLedger` accounts the bytes);
* :class:`TrafficGenerator` produces deterministic open-loop workloads
  (uniform, bursty, Zipf-skewed user populations);
* :class:`CheckpointStore` snapshots device state (one self-contained
  archive each), evicts under a storage budget, and restores state onto a fresh device
  (crash/replace, elasticity).

Entry points: ``FleetCoordinator(config)`` with ``provision(n)`` and
``deploy(package)`` (a :class:`~repro.edge.transfer.TransferPackage` from
``CloudServer.export_package()``), the ``pilote fleet-sim`` CLI subcommand,
``examples/fleet_simulation.py`` and ``benchmarks/bench_fleet.py``.

Serving goes through :mod:`repro.serving`: ``serve(fleet)`` builds a
futures-based client whose event-loop scheduler shards requests across the
devices (by user id under the default ``"hash"`` routing), batches them
through each device's :class:`~repro.edge.inference.InferenceEngine` and
records per-device statistics on a simulated parallel clock, with pluggable
routing policies; a partially deployed fleet routes only over its deployed
devices.
"""

from repro.fleet.checkpoint import CheckpointStore, DeviceCheckpoint
from repro.fleet.coordinator import (
    FleetAccuracyReport,
    FleetCoordinator,
    FleetDevice,
    RegionCoordinator,
    TransferLedger,
)
from repro.fleet.simulation import FleetSimulationResult
from repro.fleet.traffic import (
    TrafficGenerator,
    WorkloadSpec,
    staggered_schedule,
)

__all__ = [
    "FleetCoordinator",
    "FleetDevice",
    "FleetAccuracyReport",
    "RegionCoordinator",
    "TransferLedger",
    "TrafficGenerator",
    "WorkloadSpec",
    "staggered_schedule",
    "CheckpointStore",
    "DeviceCheckpoint",
    "FleetSimulationResult",
]
