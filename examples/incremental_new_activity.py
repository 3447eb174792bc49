"""Compare the paper's three strategies on one incremental scenario (Table 2, one row).

For a chosen held-out activity this example runs the *Pre-trained*,
*Re-trained* and *PILOTE* strategies — all sharing the same cloud pre-trained
model — and prints their accuracy on the five-activity test set together with
the per-class confusion structure (the Figure 4 view).

Run with::

    python examples/incremental_new_activity.py            # new class = Run
    python examples/incremental_new_activity.py Walk       # any other activity
"""

import sys

from repro.core.config import PiloteConfig
from repro.data import Activity, make_feature_dataset
from repro.data.activities import activity_from_name
from repro.evaluation.runner import ExperimentRunner
from repro.metrics.confusion import ConfusionMatrix
from repro.metrics.forgetting import new_class_accuracy, old_class_accuracy


def main() -> None:
    new_activity = Activity.RUN
    if len(sys.argv) > 1:
        new_activity = activity_from_name(sys.argv[1])
    print(f"held-out (new) activity: {new_activity.display_name}")

    dataset = make_feature_dataset(samples_per_class=250, seed=7)
    config = PiloteConfig(
        hidden_dims=(128, 64),
        embedding_dim=32,
        batch_size=48,
        max_epochs_pretrain=15,
        max_epochs_increment=12,
        cache_size=800,
        seed=7,
    )
    runner = ExperimentRunner(config)
    comparison = runner.run_scenario(
        dataset, int(new_activity), exemplars_per_class=100, rng=7
    )
    scenario = comparison.scenario
    label_names = {int(a): a.display_name for a in Activity}

    print()
    print(f"{'method':<14}{'accuracy':>10}{'old acc.':>10}{'new acc.':>10}")
    print("-" * 44)
    for method, result in comparison.methods.items():
        old = old_class_accuracy(scenario.test.labels, result.predictions, scenario.old_classes)
        new = new_class_accuracy(scenario.test.labels, result.predictions, scenario.new_classes)
        print(f"{method:<14}{result.accuracy:>10.4f}{old:>10.4f}{new:>10.4f}")

    print()
    for method in ("re-trained", "pilote"):
        matrix = ConfusionMatrix.from_predictions(
            scenario.test.labels,
            comparison.methods[method].predictions,
            classes=sorted(label_names),
            label_names=label_names,
        )
        print(f"confusion matrix — {method}")
        print(matrix.to_text())
        print()


if __name__ == "__main__":
    main()
