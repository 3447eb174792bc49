"""Edge-device resource model.

The Q2 experiments reason about storage budgets ("2500 exemplars in compressed
format would take 3.2 MB of space", "less than 200 exemplars per class, i.e.
< 256 KB") and per-epoch latency.  :class:`EdgeDevice` is the hardware only:
its :class:`DeviceProfile`, a storage ledger that refuses allocations past the
budget (which lets the experiment harness enforce edge constraints
explicitly) and the profile's dtype scope, :meth:`EdgeDevice.precision`.  It
holds no learner and no engine: whoever deploys onto it (a
:class:`~repro.edge.magneto.MagnetoPlatform`, a
:class:`~repro.fleet.coordinator.FleetDevice`) serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.backend import precision
from repro.exceptions import EdgeResourceError


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of an edge device's resources.

    Attributes
    ----------
    name:
        Identifier (e.g. ``"smartphone"``, ``"wearable"``).
    storage_bytes:
        Persistent storage available for the model and support set.
    memory_bytes:
        Working memory available during training.
    relative_compute:
        Compute speed relative to the reference machine (1.0 = same
        speed).  It divides measured epoch time to extrapolate training
        latency, and it divides the modeled serving time of
        :func:`~repro.serving.scheduler.service_seconds` on the simulated
        clock.
    """

    name: str
    storage_bytes: int
    memory_bytes: int
    relative_compute: float = 1.0
    compute_dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.storage_bytes <= 0 or self.memory_bytes <= 0:
            raise EdgeResourceError("storage and memory budgets must be positive")
        if self.relative_compute <= 0:
            raise EdgeResourceError("relative_compute must be positive")
        if self.compute_dtype not in ("float32", "float64"):
            raise EdgeResourceError(
                f"compute_dtype must be 'float32' or 'float64', got {self.compute_dtype!r}"
            )


#: A handful of representative device profiles used in examples and benchmarks.
DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    "smartphone": DeviceProfile("smartphone", storage_bytes=64 * 2**20, memory_bytes=512 * 2**20,
                                relative_compute=0.5),
    "wearable": DeviceProfile("wearable", storage_bytes=8 * 2**20, memory_bytes=64 * 2**20,
                              relative_compute=0.1),
    "raspberry-pi": DeviceProfile("raspberry-pi", storage_bytes=128 * 2**20, memory_bytes=1024 * 2**20,
                                  relative_compute=0.3),
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
