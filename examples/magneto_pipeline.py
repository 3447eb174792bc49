"""The full MAGNETO pipeline: raw sensor windows → cloud pre-training → edge learning.

Unlike the other examples (which start from the ready-made feature dataset),
this one exercises every substrate end to end, the way a deployment would:

1. simulate one-second windows of raw 22-channel sensor data per activity
   (the generator emits fixed-length windows, so nothing is denoised or
   re-windowed);
2. extract the 80 statistical features from each window and z-score them;
3. pre-train on the cloud and package the model + support set;
4. "ship" the package to an edge device with a storage budget;
5. learn a newly observed activity on the device and profile the update
   (per-epoch latency, storage, inference latency per window).

Run with::

    python examples/magneto_pipeline.py
"""

import numpy as np

from repro.core.config import PiloteConfig
from repro.data import Activity, HARDataset
from repro.data.sensors import default_sensor_suite
from repro.data.streams import build_incremental_scenario
from repro.data.synthetic import SyntheticSensorGenerator
from repro.edge.device import DEVICE_PROFILES
from repro.edge.magneto import MagnetoPlatform
from repro.edge.profiler import EdgeProfiler
from repro.features.extractor import StatisticalFeatureExtractor
from repro.timeseries.normalize import z_score


def build_dataset(samples_per_class: int = 200, seed: int = 3) -> HARDataset:
    """Raw sensor simulation → preprocessing → 80-feature dataset."""
    suite = default_sensor_suite()
    generator = SyntheticSensorGenerator(suite=suite, seed=seed)
    windows, labels = generator.generate_dataset(samples_per_class)
    extractor = StatisticalFeatureExtractor(
        suite.triaxial_groups, sampling_rate_hz=suite.sampling_rate_hz
    )
    features = z_score(extractor.transform(windows))
    label_names = {int(a): a.display_name for a in Activity}
    return HARDataset(features=features, labels=labels, label_names=label_names)


def main() -> None:
    print("simulating raw sensor recordings and extracting features...")
    dataset = build_dataset()
    scenario = build_incremental_scenario(dataset, [Activity.ESCOOTER], rng=3)
    print(f"pre-training activities: {[dataset.class_name(c) for c in scenario.old_classes]}")
    print(f"activity observed later on the edge: "
          f"{[dataset.class_name(c) for c in scenario.new_classes]}")

    config = PiloteConfig(
        hidden_dims=(128, 64),
        embedding_dim=32,
        batch_size=48,
        max_epochs_pretrain=15,
        max_epochs_increment=12,
        cache_size=400,
        seed=3,
    )
    platform = MagnetoPlatform(config, device_profile=DEVICE_PROFILES["smartphone"], seed=3)

    print("\n[cloud] pre-training the warm-start model...")
    history = platform.cloud_pretrain(
        scenario.old_train, scenario.old_validation, exemplars_per_class=100
    )
    print(f"[cloud] {history.epochs_run} epochs, final loss {history.train_losses[-1]:.4f}")

    package = platform.deploy_to_edge()
    print("[transfer] shipped to the edge device:")
    for key, value in package.summary().items():
        print(f"    {key:<22}{value:>14.1f}")

    print("\n[edge] profiling the incremental update on the new activity...")
    profiler = EdgeProfiler()
    report = profiler.profile_increment(
        platform.edge_learner,
        scenario.new_train,
        scenario.new_validation,
        inference_data=scenario.test,
    )
    # The profiler drove the update directly, so refresh the device's ledger.
    platform.device.store("support_set", platform.edge_learner.support_set_nbytes())
    platform.device.store("prototypes", platform.edge_learner.prototypes.nbytes())
    for key, value in report.summary().items():
        print(f"    {key:<28}{value:>12.4f}")
    print("    extrapolated mean epoch seconds on a wearable: "
          f"{report.scaled_to(DEVICE_PROFILES['wearable']).mean_epoch_seconds:.3f}")

    # Serving goes through the unified client (same API as a fleet).
    predictions = platform.serving_client().predict(scenario.test.features)
    accuracy = float(np.mean(predictions == scenario.test.labels))
    print(f"\n[edge] accuracy on all {len(scenario.all_classes)} activities: {accuracy:.4f}")
    print("[edge] storage ledger:")
    for name, nbytes in platform.storage_report().items():
        print(f"    {name:<14}{nbytes / 1024:>10.1f} KB")


if __name__ == "__main__":
    main()
