"""Synthetic MAGNETO-like sensor data.

The original evaluation data (a >100 GB proprietary collection campaign) is not
available, so this module generates a synthetic substitute with the same shape
and — crucially — the same class-similarity topology:

* **Still** — near-constant signals with small sensor noise.
* **Walk** — periodic locomotion around 1.9 Hz with moderate amplitude.
* **Run** — periodic locomotion around 2.7 Hz with higher amplitude; the
  frequency/amplitude distributions deliberately overlap with *Walk* so the
  two classes are confusable, reproducing the paper's Run↔Walk confusion
  structure (Figure 4).
* **Drive** — low-frequency body motion plus high-frequency engine vibration,
  strong pressure/temperature signature.
* **E-scooter** — vibration-dominated like *Drive* but with more gyroscope
  activity and a different vibration band, making it well separated.

Each generated window is ``(window_length, n_channels)`` and is produced by a
harmonic locomotion component, a vibration component, per-window and per-user
random factors, sensor noise and slow drift.  Passing the windows through the
80-feature statistical extractor yields the feature vectors used everywhere
else in the library.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.activities import Activity
from repro.data.sensors import SensorSuite, default_sensor_suite
from repro.exceptions import DataError
from repro.features.extractor import StatisticalFeatureExtractor
from repro.timeseries.normalize import z_score
from repro.utils.rng import RandomState, resolve_rng

#: Relative amplitude of the locomotion component's second harmonic.
HARMONIC_RATIO = 0.35

#: Simulated users; each gets a persistent random gain per sensor group,
#: adding realistic between-subject variance.
N_USERS = 8

#: Corpora :func:`make_feature_dataset` keeps per process.  The paper's six
#: experiments build 4 distinct corpora in one process, perfbench one.
DATASET_CACHE_SIZE = 8

#: ``(counts, seed key)`` → ``(features, labels, label_names, generator state
#: after the build or None)``, least recently used first.
_DATASET_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()


@dataclass(frozen=True)
class ActivitySignature:
    """Parametric description of how one activity excites the sensor suite.

    All "mean/std" pairs describe per-window lognormal-ish variation: each
    window draws its own value, which is what creates intra-class variance and
    inter-class overlap.

    Attributes
    ----------
    locomotion_hz:
        Mean fundamental frequency of the body motion (steps, vehicle sway).
    locomotion_hz_std:
        Per-window standard deviation of that frequency.
    accel_amplitude / accel_amplitude_std:
        Amplitude of the locomotion component on the accelerometer-like sensors.
    gyro_amplitude / gyro_amplitude_std:
        Amplitude of the rotation component on the gyroscope-like sensors.
    vibration_level:
        Standard deviation of the high-frequency vibration component
        (engine/road vibration for Drive and E-scooter).
    vibration_hz:
        Centre frequency of the vibration band.
    noise_level:
        Standard deviation of white sensor noise added to every channel.
    drift_level:
        Magnitude of a slow random-walk drift (simulates sensor bias drift).
    scalar_levels:
        Mean values of the four scalar channels (pressure, light, proximity,
        temperature), expressed in normalised units.
    """

    locomotion_hz: float
    locomotion_hz_std: float
    accel_amplitude: float
    accel_amplitude_std: float
    gyro_amplitude: float
    gyro_amplitude_std: float
    vibration_level: float
    vibration_hz: float
    noise_level: float
    drift_level: float
    scalar_levels: Tuple[float, float, float, float]


def default_signatures() -> Dict[Activity, ActivitySignature]:
    """The calibrated per-activity signatures used by the reproduction.

    Run and Walk overlap on purpose (adjacent frequency bands, overlapping
    amplitude ranges); Still is nearly silent; Drive and E-scooter are
    vibration-dominated with distinct scalar-channel signatures.
    """
    return {
        Activity.STILL: ActivitySignature(
            locomotion_hz=0.2,
            locomotion_hz_std=0.08,
            accel_amplitude=0.05,
            accel_amplitude_std=0.03,
            gyro_amplitude=0.03,
            gyro_amplitude_std=0.02,
            vibration_level=0.02,
            vibration_hz=25.0,
            noise_level=0.05,
            drift_level=0.01,
            scalar_levels=(0.0, 0.6, 0.9, 0.5),
        ),
        Activity.WALK: ActivitySignature(
            locomotion_hz=2.05,
            locomotion_hz_std=0.50,
            accel_amplitude=1.35,
            accel_amplitude_std=0.60,
            gyro_amplitude=0.60,
            gyro_amplitude_std=0.30,
            vibration_level=0.06,
            vibration_hz=18.0,
            noise_level=0.14,
            drift_level=0.02,
            scalar_levels=(0.05, 0.7, 0.2, 0.45),
        ),
        Activity.RUN: ActivitySignature(
            locomotion_hz=2.55,
            locomotion_hz_std=0.60,
            accel_amplitude=1.85,
            accel_amplitude_std=0.85,
            gyro_amplitude=0.78,
            gyro_amplitude_std=0.40,
            vibration_level=0.08,
            vibration_hz=20.0,
            noise_level=0.15,
            drift_level=0.02,
            scalar_levels=(0.055, 0.72, 0.2, 0.5),
        ),
        Activity.DRIVE: ActivitySignature(
            locomotion_hz=0.50,
            locomotion_hz_std=0.20,
            accel_amplitude=0.28,
            accel_amplitude_std=0.14,
            gyro_amplitude=0.16,
            gyro_amplitude_std=0.10,
            vibration_level=0.52,
            vibration_hz=17.0,
            noise_level=0.12,
            drift_level=0.05,
            scalar_levels=(0.32, 0.42, 0.72, 0.62),
        ),
        Activity.ESCOOTER: ActivitySignature(
            locomotion_hz=0.75,
            locomotion_hz_std=0.28,
            accel_amplitude=0.42,
            accel_amplitude_std=0.20,
            gyro_amplitude=0.38,
            gyro_amplitude_std=0.20,
            vibration_level=0.70,
            vibration_hz=14.0,
            noise_level=0.12,
            drift_level=0.04,
            scalar_levels=(0.22, 0.58, 0.52, 0.48),
        ),
    }


class SyntheticSensorGenerator:
    """Generates raw sensor windows for each activity.

    Parameters
    ----------
    suite:
        Sensor layout (defaults to the 22-channel suite).
    seed:
        Seed or generator for reproducibility.

    Every activity follows its :func:`default_signatures` entry.
    """

    def __init__(
        self,
        suite: Optional[SensorSuite] = None,
        seed: RandomState = None,
    ) -> None:
        self.suite = suite or default_sensor_suite()
        self.signatures = default_signatures()
        self._rng = resolve_rng(seed)
        # Persistent per-user, per-triaxial-group gain factors.
        self._user_gains = self._rng.normal(
            1.0, 0.20, size=(N_USERS, len(self.suite.triaxial_groups))
        ).clip(0.5, 1.6)

    # ------------------------------------------------------------------ #
    def generate_windows(self, activity: Activity, n_windows: int) -> np.ndarray:
        """Generate ``n_windows`` raw windows ``(n, window_length, n_channels)``."""
        if n_windows <= 0:
            raise DataError(f"n_windows must be positive, got {n_windows}")
        activity = Activity(activity)
        generator = self._rng
        signature = self.signatures[activity]
        suite = self.suite
        length = suite.window_length
        time_axis = np.arange(length) / suite.sampling_rate_hz  # seconds
        n_channels = suite.n_channels
        windows = np.zeros((n_windows, length, n_channels))

        users = generator.integers(0, N_USERS, size=n_windows)
        frequencies = generator.normal(
            signature.locomotion_hz, signature.locomotion_hz_std, size=n_windows
        ).clip(0.05, suite.sampling_rate_hz / 4)
        accel_amplitudes = generator.normal(
            signature.accel_amplitude, signature.accel_amplitude_std, size=n_windows
        ).clip(0.0, None)
        gyro_amplitudes = generator.normal(
            signature.gyro_amplitude, signature.gyro_amplitude_std, size=n_windows
        ).clip(0.0, None)
        phases = generator.uniform(0.0, 2 * np.pi, size=n_windows)
        # The locomotion waveform depends only on per-window draws; each
        # triaxial group scales it by its own amplitude.
        base = np.sin(2 * np.pi * frequencies[:, None] * time_axis[None, :] + phases[:, None])
        harmonic = HARMONIC_RATIO * np.sin(
            4 * np.pi * frequencies[:, None] * time_axis[None, :] + 2 * phases[:, None]
        )
        waveform = base + harmonic

        for group_index, group in enumerate(suite.triaxial_groups):
            gains = self._user_gains[users, group_index]
            # Accelerometer-like groups (even index) move with locomotion;
            # gyroscope-like groups (odd index) follow rotation dynamics.
            is_accel_like = group_index % 2 == 0
            amplitude = (accel_amplitudes if is_accel_like else gyro_amplitudes) * gains
            # Random orientation of the motion axis per window.
            orientation = generator.normal(0.0, 1.0, size=(n_windows, 3))
            orientation /= np.linalg.norm(orientation, axis=1, keepdims=True) + 1e-12
            locomotion = waveform * amplitude[:, None]
            vibration = signature.vibration_level * np.sin(
                2 * np.pi * signature.vibration_hz * time_axis[None, :]
                + generator.uniform(0, 2 * np.pi, size=(n_windows, 1))
            )
            vibration = vibration * generator.normal(1.0, 0.3, size=(n_windows, 1)).clip(0.2, 2.0)
            drift = np.cumsum(
                generator.normal(0.0, signature.drift_level, size=(n_windows, length)), axis=1
            )
            group_signal = locomotion + vibration + drift
            for axis_position, channel in enumerate(group):
                noise = generator.normal(0.0, signature.noise_level, size=(n_windows, length))
                windows[:, :, channel] = (
                    group_signal * orientation[:, axis_position:axis_position + 1] + noise
                )
            # Gravity-like offset on the first accelerometer group's z axis.
            if group_index == 0:
                windows[:, :, group[2]] += 1.0

        for offset, channel in enumerate(suite.scalar_channels()):
            level = signature.scalar_levels[offset % len(signature.scalar_levels)]
            base_level = generator.normal(level, 0.05, size=(n_windows, 1))
            noise = generator.normal(0.0, signature.noise_level * 0.5, size=(n_windows, length))
            windows[:, :, channel] = base_level + noise
        return windows

    # ------------------------------------------------------------------ #
    def generate_dataset(self, samples_per_class) -> Tuple[np.ndarray, np.ndarray]:
        """Generate raw windows for several activities.

        Parameters
        ----------
        samples_per_class:
            Either an int (same count for every activity) or a mapping
            ``{Activity: count}``.

        Returns
        -------
        (windows, labels):
            ``windows`` has shape ``(n_total, window_length, n_channels)`` and
            ``labels`` contains the activity class ids.
        """
        if isinstance(samples_per_class, int):
            counts = {activity: samples_per_class for activity in self.signatures}
        else:
            counts = {Activity(key): int(value) for key, value in samples_per_class.items()}
        all_windows = []
        all_labels = []
        for activity in sorted(counts, key=lambda a: int(a)):
            count = counts[activity]
            if count <= 0:
                continue
            windows = self.generate_windows(activity, count)
            all_windows.append(windows)
            all_labels.append(np.full(count, int(activity), dtype=np.int64))
        if not all_windows:
            raise DataError("no samples requested")
        return np.concatenate(all_windows, axis=0), np.concatenate(all_labels, axis=0)


def _cache_key(counts: Dict[Activity, int], seed: RandomState):
    """The cache key of a corpus with an int or ``Generator`` seed, else ``None``."""
    if isinstance(seed, np.random.Generator):
        seed_key = ("generator", _frozen(seed.bit_generator.state))
    elif isinstance(seed, (int, np.integer)):
        seed_key = ("int", int(seed))
    else:
        return None
    return tuple((int(activity), count) for activity, count in counts.items()), seed_key


def _frozen(value):
    """A bit-generator state (nested dicts, ints, arrays) as nested tuples."""
    if isinstance(value, dict):
        return tuple((key, _frozen(item)) for key, item in value.items())
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return value


def _build_feature_dataset(counts: Dict[Activity, int], seed: RandomState) -> tuple:
    """Generate and featurise one corpus: the cache entry of :func:`make_feature_dataset`."""
    suite = default_sensor_suite()
    generator = SyntheticSensorGenerator(suite=suite, seed=seed)
    windows, labels = generator.generate_dataset(counts)
    extractor = StatisticalFeatureExtractor(
        triaxial_groups=suite.triaxial_groups, sampling_rate_hz=suite.sampling_rate_hz
    )
    features = z_score(extractor.transform(windows))
    label_names = {int(activity): activity.display_name for activity in counts}
    state = seed.bit_generator.state if isinstance(seed, np.random.Generator) else None
    return features, labels, label_names, state


def make_feature_dataset(samples_per_class=400, *, seed: RandomState = None):
    """End-to-end synthetic pipeline: raw windows → 80 statistical features.

    Returns a :class:`repro.data.dataset.HARDataset` whose ``features`` matrix
    has one row per generated window.  The features are z-scored (statistics
    computed over the generated set, mimicking the cloud-side preprocessing).

    An int or ``Generator`` seed is cached per process (the last
    :data:`DATASET_CACHE_SIZE` corpora, keyed by the counts and the seed's
    value or full bit-generator state): a repeated build returns copies of
    the cached arrays and moves a ``Generator`` seed to the state a fresh
    build leaves it in, so every later draw is unchanged.  ``seed=None`` is
    never cached.
    """
    from repro.data.dataset import HARDataset  # local import avoids a cycle

    if isinstance(samples_per_class, dict):
        counts = {Activity(key): int(value) for key, value in samples_per_class.items()}
    else:
        counts = {activity: int(samples_per_class) for activity in default_signatures()}
    key = _cache_key(counts, seed)
    entry = _DATASET_CACHE.get(key)
    if entry is None:
        entry = _build_feature_dataset(counts, seed)
        if key is not None:
            _DATASET_CACHE[key] = entry
            if len(_DATASET_CACHE) > DATASET_CACHE_SIZE:
                _DATASET_CACHE.popitem(last=False)
    else:
        _DATASET_CACHE.move_to_end(key)
    features, labels, label_names, state = entry
    if state is not None:
        seed.bit_generator.state = state
    return HARDataset(
        features=features.copy(), labels=labels.copy(), label_names=dict(label_names)
    )
