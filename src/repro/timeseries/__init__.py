"""Time-series helpers the feature pipeline uses.

The synthetic generator emits fixed-length windows directly, so no raw
recording is denoised, segmented or resampled here.  What remains is the
column z-score that normalises feature matrices and the jerk, the time derivative behind the paper's jerk
features.
"""

from repro.timeseries.normalize import z_score
from repro.timeseries.jerk import jerk

__all__ = [
    "z_score",
    "jerk",
]
