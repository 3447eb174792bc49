"""Class-incremental scenario construction.

The paper's evaluation protocol designates one activity as the *new class*:
the model is pre-trained on the remaining four activities on the cloud, and
then has to learn the held-out activity on the edge from a limited number of
samples.  :func:`build_incremental_scenario` packages all the pieces needed by
PILOTE and the baselines: the old-class training/validation data, the
new-class sample pool, and a test set covering *all* classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.data.dataset import DatasetSplits, HARDataset, train_val_test_split
from repro.exceptions import DataError
from repro.utils.rng import RandomState, resolve_rng


@dataclass
class IncrementalScenario:
    """All data partitions for one class-incremental experiment.

    Attributes
    ----------
    old_classes / new_classes:
        Class ids known at pre-training time vs introduced on the edge.
    old_train, old_validation:
        Cloud-side data for the old classes.
    new_train, new_validation:
        Edge-side data for the new classes (the paper's ``D_n``); typically far
        smaller than the old-class data.
    test:
        Test set covering old *and* new classes (the paper reports accuracy on
        the full five-activity test set).
    """

    old_classes: List[int]
    new_classes: List[int]
    old_train: HARDataset
    old_validation: HARDataset
    new_train: HARDataset
    new_validation: HARDataset
    test: HARDataset

    @property
    def all_classes(self) -> List[int]:  # repro: noqa[repro-unused] examples/magneto_pipeline.py
        return sorted(set(self.old_classes) | set(self.new_classes))


def build_incremental_scenario(
    dataset: HARDataset,
    new_classes: Sequence[int],
    *,
    test_fraction: float = 0.3,
    validation_fraction: float = 0.2,
    new_class_samples: Optional[int] = None,
    rng: RandomState = None,
) -> IncrementalScenario:
    """Split ``dataset`` into the paper's incremental-learning protocol.

    Parameters
    ----------
    dataset:
        The full multi-class dataset.
    new_classes:
        Class ids treated as "new" (unseen during pre-training).
    test_fraction, validation_fraction:
        Split ratios (paper defaults: 30% test, 0.2 validation).
    new_class_samples:
        If given, the new-class training pool is randomly capped to this many
        samples per new class — this is how the extreme-edge scenarios
        (Figure 7) limit the available new-class data.
    rng:
        Seed or generator.
    """
    generator = resolve_rng(rng)
    new_set = {int(c) for c in new_classes}
    if not new_set:
        raise DataError("at least one new class is required")
    known = {int(c) for c in dataset.classes}
    unknown = new_set - known
    if unknown:
        raise DataError(f"new classes {sorted(unknown)} are not present in the dataset")
    old_set = known - new_set
    if not old_set:
        raise DataError("at least one old class must remain for pre-training")

    splits: DatasetSplits = train_val_test_split(
        dataset,
        test_fraction=test_fraction,
        validation_fraction=validation_fraction,
        rng=generator,
    )
    old_train = splits.train.select_classes(old_set)
    old_validation = splits.validation.select_classes(old_set)
    new_train = splits.train.select_classes(new_set)
    new_validation = splits.validation.select_classes(new_set)
    if new_class_samples is not None:
        new_train = new_train.subsample(new_class_samples, per_class=True, rng=generator)

    return IncrementalScenario(
        old_classes=sorted(old_set),
        new_classes=sorted(new_set),
        old_train=old_train,
        old_validation=old_validation,
        new_train=new_train,
        new_validation=new_validation,
        test=splits.test,
    )
