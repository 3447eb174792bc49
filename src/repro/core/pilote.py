"""The PILOTE learner.

PILOTE (Pushing Incremental Learning On human activities at the exTreme Edge)
combines four ingredients:

1. a Siamese embedding backbone trained with a supervised contrastive loss
   (cloud pre-training on the initially known activities);
2. a herding-selected exemplar support set shipped to the edge together with
   the pre-trained model;
3. an edge-side incremental update that jointly optimises the contrastive loss
   on new-class data and a feature-space distillation loss anchoring the
   old-class exemplar embeddings to the frozen pre-trained model
   (``L = α · L_disti + (1 − α) · L_contra``, Algorithm 1);
4. a nearest-class-mean classifier over class prototypes (Eq. 1).

Typical usage::

    config = PiloteConfig.edge_lightweight(seed=0)
    learner = PILOTE(config)
    learner.pretrain(old_train, old_validation)
    learner.learn_new_classes(new_train, new_validation)
    predictions = learner.predict(test.features)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.autodiff.primitives import pilote_loss
from repro.autodiff.tensor import Tensor
from repro.backend import get_backend
from repro.backend.policy import default_dtype
from repro.core.config import PiloteConfig
from repro.core.embedding import EmbeddingNetwork
from repro.core.exemplars import ExemplarStore
from repro.core.ncm import NCMClassifier
from repro.core.pairs import PairSampler, class_membership
from repro.core.prototypes import PrototypeStore
from repro.data.dataset import HARDataset
from repro.exceptions import DataError, NotFittedError
from repro.utils.clock import perf_seconds
from repro.nn.optim import Adam
from repro.nn.schedulers import HalvingLR
from repro.nn.trainer import EarlyStopping, Trainer, TrainingHistory
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, resolve_rng

logger = get_logger("core.pilote")


class PILOTE:
    """Incremental human-activity learner for the extreme edge.

    Parameters
    ----------
    config:
        Hyper-parameters; defaults to the paper's settings
        (:meth:`PiloteConfig.paper_defaults`).
    seed:
        Overrides ``config.seed`` when given.
    """

    def __init__(self, config: Optional[PiloteConfig] = None, seed: RandomState = None) -> None:
        self.config = config or PiloteConfig()
        self._rng = resolve_rng(seed if seed is not None else self.config.seed)
        self.model: Optional[EmbeddingNetwork] = None
        self.exemplars = ExemplarStore(strategy=self.config.exemplar_strategy, rng=self._rng)
        self.prototypes = PrototypeStore(embedding_dim=self.config.embedding_dim)
        self.classifier = NCMClassifier()
        self._old_classes: List[int] = []
        self._new_classes: List[int] = []
        self._pretrain_dataset: Optional[HARDataset] = None
        self._classifier_ready = False
        self._state_version = 0
        self._phase_seconds: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def is_pretrained(self) -> bool:
        return self.model is not None and bool(self._old_classes)

    @property
    def classes_(self) -> List[int]:
        """All classes currently known to the learner."""
        return sorted(set(self._old_classes) | set(self._new_classes))

    @property
    def old_classes(self) -> List[int]:
        return list(self._old_classes)

    @property
    def new_classes(self) -> List[int]:
        return list(self._new_classes)

    @property
    def state_version(self) -> int:
        """Monotonic counter bumped whenever prototypes/classifier state changes.

        Serving-side caches (:class:`repro.edge.inference.InferenceEngine`)
        compare against this to know when to rebuild their prototype matrix.
        """
        return self._state_version

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Wall-clock phase breakdown of the most recent learning call.

        Keys: ``"training"``, ``"herding"`` (exemplar selection) and
        ``"prototype_refresh"`` — the profiling split :class:`repro.edge
        .profiler.EdgeProfiler` exports alongside the epoch timings.
        """
        return dict(self._phase_seconds)

    # ------------------------------------------------------------------ #
    # cloud pre-training
    # ------------------------------------------------------------------ #
    def pretrain(
        self,
        train: HARDataset,
        validation: Optional[HARDataset] = None,
        *,
        exemplars_per_class: Optional[int] = None,
    ) -> TrainingHistory:
        """Cloud-side pre-training on the initially known activities.

        Trains the embedding backbone with the pure contrastive objective,
        then builds the exemplar support set and the class prototypes.

        Parameters
        ----------
        train, validation:
            Old-class data (``D_o``) and its validation split.
        exemplars_per_class:
            Support-set size per class; defaults to ``cache_size // n_classes``.
        """
        if train.n_samples < 2:
            raise DataError("pre-training requires at least two samples")
        self._phase_seconds = {}
        self.model = EmbeddingNetwork(train.n_features, config=self.config, rng=self._rng)
        self._old_classes = [int(c) for c in train.classes]
        self._new_classes = []
        self._pretrain_dataset = train
        validation_rows = None
        if validation is not None and validation.n_samples > 1:
            validation_rows = (validation.features, validation.labels)
        history = self._run_training(
            features=train.features,
            labels=train.labels,
            validation=validation_rows,
            max_epochs=self.config.max_epochs_pretrain,
            new_classes=None,
        )
        self.build_support_set(per_class=exemplars_per_class)
        logger.info(
            "pre-trained on classes %s (%d samples, %d epochs)",
            self._old_classes,
            train.n_samples,
            history.epochs_run,
        )
        return history

    def build_support_set(
        self,
        *,
        per_class: Optional[int] = None,
        strategy: Optional[str] = None,
    ) -> ExemplarStore:
        """(Re)build the exemplar support set from the pre-training data.

        This is the cloud-side step of Algorithm 1 (lines 1–7).  It may be
        called again after pre-training with a different ``per_class`` budget
        or selection ``strategy`` — the support-set-size experiments
        (Figure 6) rely on that.
        """
        if self.model is None:
            raise NotFittedError("pretrain() must run before building the support set")
        dataset = self._pretrain_dataset
        if dataset is None:
            raise DataError("no dataset available to build the support set from")
        strategy = strategy or self.config.exemplar_strategy
        self.exemplars = ExemplarStore(strategy=strategy, rng=self._rng)
        classes = [int(c) for c in dataset.classes]
        budget = per_class
        if budget is None:
            budget = max(self.config.cache_size // max(len(classes), 1), 1)
        herding_start = perf_seconds()
        self._select_class_exemplars(
            [(class_id, dataset.class_subset(class_id)) for class_id in classes],
            budget,
        )
        self._phase_seconds["herding"] = perf_seconds() - herding_start
        self._refresh_prototypes()
        return self.exemplars

    # ------------------------------------------------------------------ #
    # edge-side incremental learning
    # ------------------------------------------------------------------ #
    def learn_new_classes(
        self,
        new_train: HARDataset,
        new_validation: Optional[HARDataset] = None,
    ) -> TrainingHistory:
        """Edge-side incremental update with new-class data (Algorithm 1, lines 8–13).

        Parameters
        ----------
        new_train:
            New-class samples ``D_n`` recorded on the edge.
        new_validation:
            Optional validation split used for early stopping.

        Each new class keeps as many exemplars as the largest old class.
        """
        if not self.is_pretrained:
            raise NotFittedError("pretrain() must run before learn_new_classes()")
        if len(self.exemplars) == 0:
            raise NotFittedError("the support set is empty; call build_support_set() first")
        incoming = [int(c) for c in new_train.classes]
        already_known = set(self.classes_) & set(incoming)
        if new_validation is not None:
            already_known |= set(self.classes_) & {int(c) for c in new_validation.classes}
        if already_known:
            raise DataError(f"classes {sorted(already_known)} are already known to the model")
        self._phase_seconds = {}

        # The support set followed by the new rows, built in the policy
        # dtype by one concatenation: the trainer uses it as given, and the
        # validation set reads its support rows from it.
        features, labels = self.exemplars.as_dataset(new_train)
        validation_rows = None
        if new_validation is not None and new_validation.n_samples > 1:
            validation_rows = (new_validation.features, new_validation.labels)

        history = self._run_training(
            features=features,
            labels=labels,
            validation=validation_rows,
            max_epochs=self.config.max_epochs_increment,
            new_classes=set(incoming),
            support_rows=features.shape[0] - new_train.n_samples,
        )

        # Store exemplars for the new classes and refresh all prototypes.
        counts = self.exemplars.exemplars_per_class()
        budget = max(counts.values()) if counts else None
        herding_start = perf_seconds()
        self._select_class_exemplars(
            [(class_id, new_train.class_subset(class_id)) for class_id in incoming],
            budget,
        )
        self._phase_seconds["herding"] = perf_seconds() - herding_start
        self._new_classes = sorted(set(self._new_classes) | set(incoming))
        self._refresh_prototypes()
        logger.info(
            "learned new classes %s from %d samples (%d epochs)",
            incoming,
            new_train.n_samples,
            history.epochs_run,
        )
        return history

    def refine_prototype(  # repro: noqa[repro-unused] perfbench/harness.py
        self, class_id: int, features: np.ndarray
    ) -> np.ndarray:
        """Fold new samples of a *known* class into its prototype — no training.

        The cheap edge-side increment: a device that keeps observing an
        activity it already knows does not need to retrain the backbone
        (``learn_new_classes`` rebuilds everything); it embeds the new
        windows under the frozen model and moves the class prototype to the
        running mean, weighting the existing prototype by the class's
        exemplar count.  Exactly one prototype row changes.

        Returns the updated prototype.
        """
        if self.model is None:
            raise NotFittedError("pretrain() must run before refine_prototype()")
        class_id = int(class_id)
        if class_id not in self.prototypes:
            raise DataError(
                f"class {class_id} is unknown; refine_prototype only updates "
                "existing prototypes (use learn_new_classes for new classes)"
            )
        features = np.asarray(features)
        if features.ndim == 1:
            features = features[None, :]
        if features.ndim != 2 or features.shape[0] == 0:
            raise DataError("features must be a non-empty (n, d) array")
        embeddings = self.model.embed(features)
        weight = float(self.exemplars.exemplars_per_class().get(class_id, 1))
        old = self.prototypes.get(class_id)
        updated = (old * weight + embeddings.sum(axis=0)) / (
            weight + embeddings.shape[0]
        )
        self.prototypes.set(class_id, updated)
        self.refit_classifier()
        return self.prototypes.get(class_id)

    def refit_classifier(self) -> None:
        """Fit the NCM classifier to the current prototypes (Eq. 1).

        The one place the classifier changes: it bumps :attr:`state_version`
        so serving caches rebind to the new prototypes.
        """
        self.classifier = NCMClassifier().fit(self.prototypes)
        self._classifier_ready = True
        self._state_version += 1

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def embed(self, features: np.ndarray) -> np.ndarray:
        """Embed feature rows with the current model (inference mode)."""
        if self.model is None:
            raise NotFittedError("the model has not been trained")
        return self.model.embed(features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict activity classes with the NCM classifier (Eq. 1)."""
        self._ensure_classifier()
        return self.classifier.predict(self.embed(features))

    def inference_engine(self) -> "InferenceEngine":
        """The serving engine bound to this learner (created lazily).

        The engine answers through :meth:`predict`'s own program and follows
        :attr:`state_version`, so incremental updates (:meth:`learn_new_classes`,
        :meth:`build_support_set`) reach it without re-wiring.  Repeated
        calls return the same engine instance.
        """
        from repro.edge.inference import InferenceEngine

        engine = getattr(self, "_engine", None)
        if engine is None:
            engine = self._engine = InferenceEngine(self)
        return engine

    def evaluate(self, dataset: HARDataset) -> float:
        """Plain accuracy of the learner on a labelled dataset."""
        predictions = self.predict(dataset.features)
        return float(np.mean(predictions == dataset.labels))

    # ------------------------------------------------------------------ #
    # resource accounting (Q2)
    # ------------------------------------------------------------------ #
    def support_set_nbytes(self) -> int:
        """Bytes needed to store the exemplar support set as float32."""
        return self.exemplars.nbytes()

    def model_nbytes(self) -> int:
        """Bytes needed to store the backbone parameters as float32."""
        if self.model is None:
            return 0
        return self.model.parameter_nbytes()

    def memory_footprint(self) -> Dict[str, int]:  # repro: noqa[repro-unused] perfbench/harness.py
        """Byte-level footprint of everything the edge must hold."""
        return {
            "model_bytes": self.model_nbytes(),
            "support_set_bytes": self.support_set_nbytes(),
            "prototype_bytes": self.prototypes.nbytes(),
            "total_bytes": self.model_nbytes()
            + self.support_set_nbytes()
            + self.prototypes.nbytes(),
        }

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _select_class_exemplars(
        self, class_rows: Sequence[Tuple[int, np.ndarray]], budget: Optional[int]
    ) -> None:
        """Select and store exemplars for each ``(class_id, rows)`` unit."""
        for class_id, rows in class_rows:
            embeddings = self.model.embed(rows)
            self.exemplars.select(class_id, rows, embeddings, n_exemplars=budget)

    def _refresh_prototypes(self) -> None:
        """Recompute every class prototype from its exemplars under the current model."""
        if self.model is None:
            raise NotFittedError("the model has not been trained")
        start = perf_seconds()
        self.prototypes = PrototypeStore(embedding_dim=self.config.embedding_dim)
        for class_id in self.exemplars.classes:
            rows = self.exemplars.get(class_id)
            embeddings = self.model.embed(rows)
            self.prototypes.set(class_id, embeddings.mean(axis=0))
        self._phase_seconds["prototype_refresh"] = perf_seconds() - start
        if len(self.prototypes) > 0:
            self.refit_classifier()
        else:
            self._state_version += 1

    def _ensure_classifier(self) -> None:
        if not self._classifier_ready:
            if len(self.prototypes) == 0:
                raise NotFittedError("no prototypes available; train the model first")
            self.refit_classifier()

    def _run_training(
        self,
        *,
        features: np.ndarray,
        labels: np.ndarray,
        validation: Optional[Tuple[np.ndarray, np.ndarray]],
        max_epochs: int,
        new_classes: Optional[Set[int]],
        support_rows: int = 0,
    ) -> TrainingHistory:
        """Shared optimisation loop for pre-training and incremental updates.

        A training step is one op (:meth:`EmbeddingNetwork.training_loss`);
        a validation pass evaluates the same objective on ``embed`` output,
        on plain arrays.  The validation set is the first ``support_rows``
        rows of ``features`` (the support set, which an increment trains on
        too) followed by the ``validation`` rows; it reads the shared rows
        from ``features`` rather than holding a copy, and embeds each part
        with one ``embed`` call.

        With ``new_classes`` the objective distils the old-class rows
        towards the frozen teacher ``φ_Θo``: the model as the increment
        starts.  Old-class rows are support rows only (the new rows hold new
        classes), so the teacher embeddings of the support set's old-class
        rows are computed here, once, and both sets look theirs up by row
        id through their old-class mask.  The trainer hands each step its
        row ids, so the step looks up its rows' labels and teacher
        embeddings; the validation set's labels, old-class rows and teacher
        rows are looked up once, and each epoch draws only its pairs.
        """
        assert self.model is not None
        model = self.model
        # Training rewrites the weights in place: they are this learner's own
        # from here on, so its lanes stop sharing embeddings with siblings.
        model.weights_token = None
        config = self.config
        sampler = PairSampler(config.max_pairs_per_batch, rng=self._rng)
        alpha = config.alpha if new_classes else 0.0
        old_class_ids = set(self._old_classes)
        features = get_backend().asarray(features)
        support = features[:support_rows]

        teacher = teacher_row = None
        if alpha > 0.0:
            support_old = class_membership(labels[:support_rows], old_class_ids)
            teacher = model.embed(support[support_old]).astype(default_dtype(), copy=False)
            teacher_row = np.cumsum(support_old) - 1  # support row id -> teacher row

        def objective(batch_labels, centre, old_rows, old_teacher) -> dict:
            """One batch's objective keywords; its pairs centre on the
            classes in ``centre`` (all pairs when ``None``)."""
            pairs = sampler.sample(batch_labels, new_classes=centre)
            return dict(
                left=pairs.left, right=pairs.right, same_class=pairs.same_class,
                margin=config.margin, variant=config.contrastive_variant,
                alpha=alpha, old_rows=old_rows, teacher=old_teacher,
            )

        train_old = None if teacher is None else class_membership(labels, old_class_ids)

        def train_loss(batch_features: np.ndarray, rows: np.ndarray) -> Tensor:
            old_rows = old_teacher = None
            if train_old is not None:
                old_rows = train_old[rows].nonzero()[0]
                old_teacher = teacher[teacher_row[rows[old_rows]]]
            return model.training_loss(
                batch_features, **objective(labels[rows], new_classes, old_rows, old_teacher)
            )

        validation_loss = None
        if validation is not None:
            validation_features, validation_labels = validation
            parts = [get_backend().asarray(validation_features)]  # cast once
            if support_rows:
                parts.insert(0, support)
                validation_labels = np.concatenate([labels[:support_rows], validation_labels])
            # Only the pair draw changes from epoch to epoch.  The set opens
            # with the support rows and its new rows hold no known class
            # (``learn_new_classes`` checks), so its old-class rows are the
            # support set's, whose teacher rows are ``teacher`` in order.
            validation_old = None if teacher is None else support_old.nonzero()[0]

            def validation_loss() -> float:
                embeddings = np.concatenate([model.embed(part) for part in parts])
                return float(pilote_loss(embeddings, **objective(
                    validation_labels, None, validation_old, teacher
                )))

        optimizer = Adam(model.parameters(), lr=config.learning_rate)
        scheduler = HalvingLR(optimizer)
        early_stopping = EarlyStopping(
            threshold=config.early_stopping_threshold,
            patience=config.early_stopping_patience,
        )
        trainer = Trainer(
            model,
            optimizer,
            scheduler=scheduler,
            early_stopping=early_stopping,
            max_epochs=max_epochs,
            batch_size=config.batch_size,
            rng=self._rng,
        )
        training_start = perf_seconds()
        history = trainer.fit(train_loss, features, validation_loss=validation_loss)
        self._phase_seconds["training"] = perf_seconds() - training_start
        return history
