"""Checkpointed device state: snapshot and restore.

Fleet elasticity needs device state to outlive devices: a wearable dies, a
phone is replaced, a simulation wants to roll a device back.  The
:class:`CheckpointStore` persists each device's full PILOTE state as one
``.npz`` archive (:func:`repro.core.persistence.save_pilote`) and can
materialise a *fresh* :class:`~repro.edge.device.FleetDevice` from any
checkpoint.

Restoration is exact: the restored device reproduces the original device's
predictions bit for bit (the npz round-trip is lossless and serving is
deterministic), which ``benchmarks/bench_fleet.py`` gates on.  Every
archive is self-contained: each restores the state it captured.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.core.persistence import load_pilote, save_pilote
from repro.edge.device import DeviceProfile, EdgeDevice, FleetDevice
from repro.exceptions import SerializationError

PathLike = Union[str, Path]


@dataclass(frozen=True)
class DeviceCheckpoint:
    """One snapshot of a device's learner state.

    Attributes
    ----------
    checkpoint_id:
        Store-unique id (monotonic sequence number).
    device_id:
        Fleet id of the device that was snapshotted.
    profile:
        The device's hardware profile, so a replacement can be provisioned
        with the same budgets and compute dtype.
    path:
        Location of the ``.npz`` archive on disk.
    nbytes:
        On-disk size of the archive.
    """

    checkpoint_id: int
    device_id: int
    profile: DeviceProfile
    path: Path
    nbytes: int


class CheckpointStore:
    """Store of device checkpoints, one archive each under ``directory``.

    Parameters
    ----------
    directory:
        Where archives are written (created on demand).
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self._sequence = 0

    # ------------------------------------------------------------------ #
    def save(self, device: FleetDevice) -> DeviceCheckpoint:
        """Snapshot a device's learner."""
        if device.learner is None:
            raise SerializationError(
                f"device {device.device_id} has no learner to checkpoint"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        checkpoint_id = self._sequence
        self._sequence += 1
        path = save_pilote(
            device.learner,
            self.directory / f"device{device.device_id}-ckpt{checkpoint_id}.npz",
        )
        return DeviceCheckpoint(
            checkpoint_id=checkpoint_id,
            device_id=device.device_id,
            profile=device.profile,
            path=path,
            nbytes=int(path.stat().st_size),
        )

    # ------------------------------------------------------------------ #
    def restore(self, checkpoint: DeviceCheckpoint) -> FleetDevice:
        """Materialise a fresh device from a checkpoint (crash/replace path).

        The replacement keeps the original's device id and profile, so it
        can be swapped back in via ``FleetCoordinator.replace_device``.
        """
        if not checkpoint.path.exists():
            raise SerializationError(
                f"checkpoint {checkpoint.checkpoint_id} of device "
                f"{checkpoint.device_id} is gone from disk"
            )
        replacement = FleetDevice(
            device_id=checkpoint.device_id, edge=EdgeDevice(checkpoint.profile)
        )
        # Load under the replacement's dtype policy so the restored parameters
        # keep the exact on-device dtype (and serving stays bit-identical).
        with replacement.edge.precision():
            replacement.adopt(load_pilote(checkpoint.path))
            # Warm the serving caches now, not inside the first request: a
            # restored device usually replaces one that was mid-traffic, so
            # it should answer at full speed immediately (the rebuild is
            # counted in the engine's cache_refreshes as usual).
            replacement.engine.warm()
        return replacement
