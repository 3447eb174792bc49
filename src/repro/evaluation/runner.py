"""Scenario runner: pre-train once, compare methods that share the warm start.

The paper compares the *Pre-trained*, *Re-trained* and *PILOTE* strategies,
all built "based on the same pre-trained model" (Section 6.2).  The
:class:`ExperimentRunner` reproduces that protocol for one scenario (one
held-out new activity) and returns per-method accuracies, predictions and the
learners themselves so downstream experiments can inspect embeddings or
confusion matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.base import clone_pretrained
from repro.baselines.pretrained import PretrainedBaseline
from repro.baselines.retrained import RetrainedBaseline
from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset
from repro.data.streams import IncrementalScenario, build_incremental_scenario
from repro.evaluation.results import MethodResult
from repro.exceptions import ConfigurationError
from repro.metrics.classification import accuracy
from repro.utils.rng import RandomState, resolve_rng

#: Methods compared in the paper's experiments.
PAPER_METHODS = ("pre-trained", "re-trained", "pilote")


@dataclass
class ComparisonResult:
    """Per-method outcomes of one scenario run."""

    scenario: IncrementalScenario
    methods: Dict[str, MethodResult]
    pretrained_learner: Optional[PILOTE] = None
    learners: Dict[str, PILOTE] = field(default_factory=dict)

    def summary(self) -> Dict[str, float]:
        return {name: result.accuracy for name, result in self.methods.items()}


class ExperimentRunner:
    """Runs the paper's three-way comparison for one incremental scenario."""

    def __init__(
        self,
        config: Optional[PiloteConfig] = None,
        *,
        methods: Sequence[str] = PAPER_METHODS,
        keep_learners: bool = False,
    ) -> None:
        self.config = config or PiloteConfig()
        unknown = set(methods) - set(PAPER_METHODS)
        if unknown:
            raise ConfigurationError(
                f"unknown methods {sorted(unknown)}; supported: {PAPER_METHODS}"
            )
        self.methods = tuple(methods)
        self.keep_learners = bool(keep_learners)

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
            pretrained = clone_pretrained(pretrained)
            pretrained.build_support_set(
                per_class=exemplars_per_class, strategy=exemplar_strategy
            )

        new_train = scenario.new_train
        if new_class_samples is not None:
            new_train = new_train.subsample(new_class_samples, per_class=True, rng=generator)
        new_validation = scenario.new_validation
        test = scenario.test

        results: Dict[str, MethodResult] = {}
        learners: Dict[str, PILOTE] = {}

        if "pre-trained" in self.methods:
            baseline = PretrainedBaseline(pretrained=pretrained)
            baseline.learn_increment(new_train)
            predictions = baseline.predict(test.features)
            results["pre-trained"] = MethodResult(
                method="pre-trained",
                accuracy=accuracy(test.labels, predictions),
                predictions=predictions,
            )
            if self.keep_learners:
                learners["pre-trained"] = baseline.learner

        if "re-trained" in self.methods:
            baseline = RetrainedBaseline(pretrained=pretrained)
            baseline.learn_increment(new_train, new_validation)
            predictions = baseline.predict(test.features)
            results["re-trained"] = MethodResult(
                method="re-trained",
                accuracy=accuracy(test.labels, predictions),
                predictions=predictions,
            )
            if self.keep_learners:
                learners["re-trained"] = baseline.learner

        if "pilote" in self.methods:
            learner = clone_pretrained(pretrained)
            learner.learn_new_classes(new_train, new_validation)
            # Test-set scoring goes through the batched serving engine — the
            # same path the deployed edge device uses.
            predictions = learner.inference_engine().predict(test.features)
            results["pilote"] = MethodResult(
                method="pilote",
                accuracy=accuracy(test.labels, predictions),
                predictions=predictions,
            )
            if self.keep_learners:
                learners["pilote"] = learner

        return ComparisonResult(
            scenario=scenario,
            methods=results,
            pretrained_learner=pretrained if self.keep_learners else None,
            learners=learners,
        )

    # ------------------------------------------------------------------ #
    def run_scenario(
        self,
        dataset: HARDataset,
        new_class: int,
        *,
        exemplars_per_class: Optional[int] = None,
        exemplar_strategy: Optional[str] = None,
        new_class_samples: Optional[int] = None,
        rng: RandomState = None,
    ) -> ComparisonResult:
        """Convenience wrapper: build the scenario from a dataset, then compare."""
        generator = resolve_rng(rng)
        scenario = build_incremental_scenario(dataset, [int(new_class)], rng=generator)
        return self.compare(
            scenario,
            exemplars_per_class=exemplars_per_class,
            exemplar_strategy=exemplar_strategy,
            new_class_samples=new_class_samples,
            rng=generator,
        )
