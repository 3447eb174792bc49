"""Scenario runner: pre-train once, compare methods that share the warm start.

The paper compares the *Pre-trained*, *Re-trained* and *PILOTE* strategies,
all built "based on the same pre-trained model" (Section 6.2).  Each strategy
is an increment: a function that integrates the new-class data into a learner
in place.  The :class:`ExperimentRunner` reproduces that protocol for one
scenario (one held-out new activity): it deep-copies the pre-trained learner
once per method, increments the copy and scores it on the test set, and
returns per-method accuracies, predictions and the learners themselves so
downstream experiments can inspect embeddings or confusion matrices.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset
from repro.data.streams import IncrementalScenario, build_incremental_scenario
from repro.evaluation.results import MethodResult
from repro.exceptions import ConfigurationError, NotFittedError
from repro.metrics.classification import accuracy
from repro.utils.rng import RandomState, resolve_rng


def pretrained_increment(
    learner: PILOTE, new_train: HARDataset, new_validation: Optional[HARDataset]
) -> None:
    """The paper's *Pre-trained* strategy: new-class prototypes, no edge training.

    "The model is pre-trained on the cloud on four activities.  It is
    transferred to the edge with a support set.  The model generates class
    prototypes for new-class samples and enriches the support set with random
    new-class data." (Section 6.1.3.)  The embedding network is never
    updated, so ``new_validation`` is unused.
    """
    if not learner.is_pretrained:
        raise NotFittedError("the Pre-trained increment needs a pre-trained learner")
    counts = learner.exemplars.exemplars_per_class()
    budget = max(counts.values()) if counts else None
    for class_id in new_train.classes:
        rows = new_train.class_subset(int(class_id))
        embeddings = learner.model.embed(rows)
        # The paper's pre-trained strategy enriches the support set with
        # *random* new-class samples (no herding on the frozen model).
        original_strategy = learner.exemplars.strategy
        learner.exemplars.strategy = "random"
        try:
            learner.exemplars.select(int(class_id), rows, embeddings, n_exemplars=budget)
        finally:
            learner.exemplars.strategy = original_strategy
        learner._new_classes = sorted(set(learner._new_classes) | {int(class_id)})
    learner._refresh_prototypes()


def retrained_increment(
    learner: PILOTE, new_train: HARDataset, new_validation: Optional[HARDataset]
) -> None:
    """The paper's *Re-trained* strategy: PILOTE's increment with α = 0.

    "The pre-trained model is re-trained on the edge using the enriched
    support set with new-class samples." (Section 6.1.3.)  Without the
    distillation term the joint loss is the pure contrastive objective, which
    is exactly what exposes the model to catastrophic forgetting.
    """
    learner.config = learner.config.with_overrides(alpha=0.0)
    learner.learn_new_classes(new_train, new_validation)


#: The paper's three methods, in the order they are run and reported.
INCREMENTS: Dict[str, Callable[[PILOTE, HARDataset, Optional[HARDataset]], object]] = {
    "pre-trained": pretrained_increment,
    "re-trained": retrained_increment,
    "pilote": PILOTE.learn_new_classes,
}

#: Methods compared in the paper's experiments.
PAPER_METHODS = tuple(INCREMENTS)


@dataclass
class ComparisonResult:
    """Per-method outcomes of one scenario run."""

    scenario: IncrementalScenario
    methods: Dict[str, MethodResult]
    learners: Dict[str, PILOTE]

    def summary(self) -> Dict[str, float]:
        return {name: result.accuracy for name, result in self.methods.items()}


class ExperimentRunner:
    """Runs the paper's three-way comparison for one incremental scenario."""

    def __init__(
        self,
        config: Optional[PiloteConfig] = None,
        *,
        methods: Sequence[str] = PAPER_METHODS,
    ) -> None:
        self.config = config or PiloteConfig()
        unknown = set(methods) - set(PAPER_METHODS)
        if unknown:
            raise ConfigurationError(
                f"unknown methods {sorted(unknown)}; supported: {PAPER_METHODS}"
            )
        self.methods = tuple(methods)

    # ------------------------------------------------------------------ #
    def pretrain(
        self,
        scenario: IncrementalScenario,
        *,
        exemplars_per_class: Optional[int] = None,
        exemplar_strategy: Optional[str] = None,
        rng: RandomState = None,
    ) -> PILOTE:
        """Cloud pre-training on the scenario's old classes."""
        config = self.config
        if exemplar_strategy is not None:
            config = config.with_overrides(exemplar_strategy=exemplar_strategy)
        learner = PILOTE(config, seed=resolve_rng(rng))
        learner.pretrain(
            scenario.old_train,
            scenario.old_validation,
            exemplars_per_class=exemplars_per_class,
        )
        return learner

    def compare(
        self,
        scenario: IncrementalScenario,
        *,
        pretrained: Optional[PILOTE] = None,
        exemplars_per_class: Optional[int] = None,
        exemplar_strategy: Optional[str] = None,
        new_class_samples: Optional[int] = None,
        rng: RandomState = None,
    ) -> ComparisonResult:
        """Run the requested methods on one scenario and score them on the test set.

        Parameters
        ----------
        scenario:
            The incremental scenario (old/new splits plus the full test set).
        pretrained:
            An existing pre-trained learner to share; pre-training is run here
            when omitted.
        exemplars_per_class:
            Support-set size per old class (Figure 6's x axis).
        exemplar_strategy:
            ``"herding"`` (representative) or ``"random"`` exemplars.
        new_class_samples:
            Cap on the number of new-class samples available on the edge
            (Figure 7's x axis).
        """
        generator = resolve_rng(rng)
        if pretrained is None:
            pretrained = self.pretrain(
                scenario,
                exemplars_per_class=exemplars_per_class,
                exemplar_strategy=exemplar_strategy,
                rng=generator,
            )
        elif exemplars_per_class is not None or exemplar_strategy is not None:
            pretrained = copy.deepcopy(pretrained)
            pretrained.build_support_set(
                per_class=exemplars_per_class, strategy=exemplar_strategy
            )

        new_train = scenario.new_train
        if new_class_samples is not None:
            new_train = new_train.subsample(new_class_samples, per_class=True, rng=generator)
        test = scenario.test

        results: Dict[str, MethodResult] = {}
        learners: Dict[str, PILOTE] = {}
        for method, increment in INCREMENTS.items():
            if method not in self.methods:
                continue
            learner = copy.deepcopy(pretrained)
            increment(learner, new_train, scenario.new_validation)
            # Test-set scoring goes through the batched serving engine — the
            # same path the deployed edge device uses.
            predictions = learner.inference_engine().predict(test.features)
            results[method] = MethodResult(
                accuracy=accuracy(test.labels, predictions), predictions=predictions
            )
            learners[method] = learner
        return ComparisonResult(scenario=scenario, methods=results, learners=learners)

    # ------------------------------------------------------------------ #
    def run_scenario(
        self,
        dataset: HARDataset,
        new_class: int,
        *,
        exemplars_per_class: Optional[int] = None,
        rng: RandomState = None,
    ) -> ComparisonResult:
        """Convenience wrapper: build the scenario from a dataset, then compare."""
        generator = resolve_rng(rng)
        scenario = build_incremental_scenario(dataset, [int(new_class)], rng=generator)
        return self.compare(
            scenario, exemplars_per_class=exemplars_per_class, rng=generator
        )
