"""Hand-crafted statistical feature extraction.

The paper feeds a lightweight, linear-time statistical feature extractor with
one-second windows of 22-channel sensor data and obtains an 80-dimensional
feature vector per window ("the average, the variance for each feature, the
average jerk, and the variance of the jerk for each three-dimensional feature
sensor").  :class:`~repro.features.extractor.StatisticalFeatureExtractor`
reproduces that pipeline; with the default 22-channel sensor layout it emits
exactly 80 features.
"""

from repro.features.statistical import (
    channel_means,
    channel_variances,
    triaxial_jerk_statistics,
    triaxial_magnitude_statistics,
)
from repro.features.extractor import StatisticalFeatureExtractor

__all__ = [
    "channel_means",
    "channel_variances",
    "triaxial_jerk_statistics",
    "triaxial_magnitude_statistics",
    "StatisticalFeatureExtractor",
]
