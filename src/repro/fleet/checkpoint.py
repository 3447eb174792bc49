"""Checkpointed device state: snapshot, evict under budget, restore.

Fleet elasticity needs device state to outlive devices: a wearable dies, a
phone is replaced, a simulation wants to roll a device back.  The
:class:`CheckpointStore` persists each device's full PILOTE state as one
``.npz`` archive (:func:`repro.core.persistence.save_pilote`), keeps the
archive set under a storage budget with least-recently-used eviction, and
can materialise a *fresh* :class:`~repro.fleet.coordinator.FleetDevice` from
any surviving checkpoint.

Restoration is exact: the restored device reproduces the original device's
predictions bit for bit (the npz round-trip is lossless and serving is
deterministic), which ``benchmarks/bench_fleet.py`` gates on.  Every
archive is self-contained: evicting one never affects another.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.core.persistence import load_pilote, save_pilote
from repro.edge.device import DeviceProfile, EdgeDevice
from repro.exceptions import EdgeResourceError, SerializationError
from repro.fleet.coordinator import FleetDevice
from repro.utils.logging import get_logger

PathLike = Union[str, Path]

logger = get_logger("fleet.checkpoint")


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
        On-disk size of the archive (what the budget accounting uses).
    """

    checkpoint_id: int
    device_id: int
    profile: DeviceProfile
    path: Path
    nbytes: int


class CheckpointStore:
    """Budgeted store of device checkpoints with LRU eviction.

    Parameters
    ----------
    directory:
        Where archives are written (created on demand).
    budget_bytes:
        Total on-disk budget across all kept checkpoints; ``None`` disables
        eviction.  A single checkpoint larger than the budget raises
        :class:`~repro.exceptions.EdgeResourceError` — it could never be kept.
    """

    def __init__(self, directory: PathLike, *, budget_bytes: Optional[int] = None) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise EdgeResourceError(f"budget_bytes must be positive, got {budget_bytes}")
        self.directory = Path(directory)
        self.budget_bytes = budget_bytes
        self._sequence = 0
        # Insertion order doubles as recency order: index 0 = least recent.
        self._checkpoints: List[DeviceCheckpoint] = []

    # ------------------------------------------------------------------ #
    @property
    def total_bytes(self) -> int:
        return sum(c.nbytes for c in self._checkpoints)

    def latest(self, device_id: int) -> Optional[DeviceCheckpoint]:
        """The newest surviving checkpoint of one device, if any."""
        matching = [c for c in self._checkpoints if c.device_id == device_id]
        return max(matching, key=lambda c: c.checkpoint_id) if matching else None

    # ------------------------------------------------------------------ #
    def save(self, device: FleetDevice) -> DeviceCheckpoint:
        """Snapshot a device's learner; may evict older checkpoints."""
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
        nbytes = path.stat().st_size
        if self.budget_bytes is not None and nbytes > self.budget_bytes:
            path.unlink()
            raise EdgeResourceError(
                f"checkpoint of device {device.device_id} ({nbytes} B) exceeds the "
                f"store budget of {self.budget_bytes} B"
            )
        checkpoint = DeviceCheckpoint(
            checkpoint_id=checkpoint_id,
            device_id=device.device_id,
            profile=device.profile,
            path=path,
            nbytes=int(nbytes),
        )
        self._checkpoints.append(checkpoint)
        self._evict_to_budget()
        return checkpoint

    def _evict_to_budget(self) -> None:
        if self.budget_bytes is None:
            return
        while self.total_bytes > self.budget_bytes and len(self._checkpoints) > 1:
            evicted = self._checkpoints.pop(0)
            evicted.path.unlink(missing_ok=True)
            logger.info(
                "evicted checkpoint %d of device %d (%d B) to stay under budget",
                evicted.checkpoint_id,
                evicted.device_id,
                evicted.nbytes,
            )

    # ------------------------------------------------------------------ #
    def restore(
        self,
        checkpoint: Union[DeviceCheckpoint, int],
        *,
        device_id: Optional[int] = None,
        profile: Optional[DeviceProfile] = None,
    ) -> FleetDevice:
        """Materialise a fresh device from a checkpoint (crash/replace path).

        Parameters
        ----------
        checkpoint:
            A :class:`DeviceCheckpoint`, or a device id whose newest surviving
            checkpoint is used.
        device_id:
            Fleet id for the replacement (defaults to the original's id, so it
            can be swapped back in via ``FleetCoordinator.replace_device``).
        profile:
            Hardware profile of the replacement (defaults to the original's).
        """
        if not isinstance(checkpoint, DeviceCheckpoint):
            found = self.latest(int(checkpoint))
            if found is None:
                raise SerializationError(
                    f"no surviving checkpoint for device {checkpoint}"
                )
            checkpoint = found
        if not checkpoint.path.exists():
            raise SerializationError(
                f"checkpoint {checkpoint.checkpoint_id} of device "
                f"{checkpoint.device_id} is gone from disk (evicted?)"
            )
        # Touch for recency: restored checkpoints are the last to be evicted.
        if checkpoint in self._checkpoints:
            self._checkpoints.remove(checkpoint)
            self._checkpoints.append(checkpoint)
        replacement = FleetDevice(
            device_id=checkpoint.device_id if device_id is None else int(device_id),
            edge=EdgeDevice(profile or checkpoint.profile),
        )
        # Load under the replacement's dtype policy so the restored parameters
        # keep the exact on-device dtype (and serving stays bit-identical).
        with replacement.edge.precision():
            replacement.adopt(load_pilote(checkpoint.path))
            # Warm the serving caches now, not inside the first request: a
            # restored device usually replaces one that was mid-traffic, so
            # it should answer at full speed immediately (the rebuild is
            # counted in the engine's cache_refreshes as usual).
            engine = replacement.edge.engine
            assert engine is not None
            engine.warm()
        return replacement
