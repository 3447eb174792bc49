"""Mobile sensor suite model.

The paper records "roughly 120 sequential measurements from 22 mobile sensors,
e.g., accelerometer, gyroscope, and magnetometer" per one-second window.  The
default suite modelled here consists of six three-axis sensors (18 channels)
and four scalar channels, 22 channels in total; the triaxial group layout
drives both the synthetic generator and the 80-feature extractor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class SensorSuite:
    """Description of the channel layout of a device's sensor array.

    Attributes
    ----------
    channel_names:
        One name per channel, in column order.
    triaxial_groups:
        Index triples identifying the (x, y, z) channels of three-axis sensors.
    sampling_rate_hz:
        Nominal sampling rate of the suite.
    """

    channel_names: Tuple[str, ...]
    triaxial_groups: Tuple[Tuple[int, int, int], ...]
    sampling_rate_hz: float = 120.0

    def __post_init__(self) -> None:
        n = len(self.channel_names)
        if n == 0:
            raise ConfigurationError("a sensor suite needs at least one channel")
        if self.sampling_rate_hz <= 0:
            raise ConfigurationError("sampling_rate_hz must be positive")
        for group in self.triaxial_groups:
            if len(group) != 3:
                raise ConfigurationError(f"triaxial groups must have 3 channels, got {group}")
            if any(index < 0 or index >= n for index in group):
                raise ConfigurationError(
                    f"triaxial group {group} references channels outside 0..{n - 1}"
                )

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    @property
    def window_length(self) -> int:
        """Samples per one-second window at the nominal rate."""
        return int(round(self.sampling_rate_hz))

    def scalar_channels(self) -> List[int]:
        """Indices of channels that are not part of any triaxial group."""
        triaxial = {index for group in self.triaxial_groups for index in group}
        return [i for i in range(self.n_channels) if i not in triaxial]


_TRIAXIAL_SENSORS = (
    "accelerometer",
    "gyroscope",
    "magnetometer",
    "gravity",
    "linear_acceleration",
    "rotation_vector",
)
_SCALAR_SENSORS = ("pressure", "light", "proximity", "ambient_temperature")


def default_sensor_suite() -> SensorSuite:
    """The 22-channel suite used throughout the reproduction, at 120 Hz.

    Six triaxial sensors (accelerometer, gyroscope, magnetometer, gravity,
    linear acceleration, rotation vector = 18 channels) plus four scalar
    sensors (pressure, light, proximity, ambient temperature).
    """
    names: List[str] = []
    groups: List[Tuple[int, int, int]] = []
    for sensor in _TRIAXIAL_SENSORS:
        start = len(names)
        names.extend(f"{sensor}_{axis}" for axis in ("x", "y", "z"))
        groups.append((start, start + 1, start + 2))
    names.extend(_SCALAR_SENSORS)
    return SensorSuite(channel_names=tuple(names), triaxial_groups=tuple(groups))
