"""HAR data substrate: activity taxonomy, sensor model, synthetic data, datasets, streams.

The paper's evaluation uses a proprietary data-collection campaign (MAGNETO,
>100 GB of raw sensor data over five activities).  This package provides a
faithful synthetic substitute: a 22-channel mobile-sensor suite model and a
parametric per-activity signal generator whose class-similarity structure
mirrors the paper's (Run and Walk are near neighbours, Drive and E-scooter are
easy), plus dataset containers and the class-incremental scenario builder used
by every experiment.
"""

from repro.data.activities import (
    ACTIVITY_NAMES,
    Activity,
    activity_from_name,
)
from repro.data.sensors import SensorSuite, default_sensor_suite
from repro.data.synthetic import (
    ActivitySignature,
    SyntheticSensorGenerator,
    default_signatures,
    make_feature_dataset,
)
from repro.data.dataset import DatasetSplits, HARDataset, train_val_test_split
from repro.data.streams import IncrementalScenario, build_incremental_scenario

__all__ = [
    "Activity",
    "ACTIVITY_NAMES",
    "activity_from_name",
    "SensorSuite",
    "default_sensor_suite",
    "ActivitySignature",
    "SyntheticSensorGenerator",
    "default_signatures",
    "make_feature_dataset",
    "HARDataset",
    "DatasetSplits",
    "train_val_test_split",
    "IncrementalScenario",
    "build_incremental_scenario",
]
