"""The one learner-state format: capture and rebuild a full PILOTE learner.

What moves between cloud, edge, storage and serving workers is one thing:
the learner state.  :func:`pilote_state` captures it as a flat
``str → ndarray`` mapping plus a metadata dict, and :func:`pilote_from_state`
is the single rebuild path every consumer goes through:

* checkpoints on disk (:func:`save_pilote`/:func:`load_pilote` and
  :class:`~repro.fleet.checkpoint.CheckpointStore`) store the whole state;
* the cloud → edge broadcast
  (:meth:`~repro.edge.transfer.TransferPackage.instantiate_learner`) lays its
  arrays out in this format;
* process serving workers (:class:`~repro.serving.ProcessExecutor`) receive
  it without the ``exemplars/`` keys and rebuild the learner they answer from.

The configuration and the class bookkeeping travel as metadata, so a rebuilt
learner is functionally identical to the captured one.  NCM serving is
Euclidean (Eq. 1); an archive whose metadata names another metric is
rejected.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Union

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.exceptions import NotFittedError, SerializationError
from repro.utils.rng import RandomState
from repro.utils.serialization import load_npz_state, save_npz_state

PathLike = Union[str, Path]

#: Changes whenever the archived config's fields do; another version's
#: archive is rejected, not migrated.
_FORMAT_VERSION = 2


def pilote_state(learner: PILOTE) -> tuple:
    """``(state, metadata)`` of a trained learner — the checkpoint contents.

    ``state`` is a flat ``str → ndarray`` mapping (``model/<param>``,
    ``exemplars/<class>``, ``prototypes/<class>``) and ``metadata`` the
    config/bookkeeping dict.  The ``model/`` arrays are
    copies; exemplar rows and prototypes are the learner's own arrays, which
    it only ever replaces, never writes into.
    """
    if not learner.is_pretrained:
        raise NotFittedError("only a pre-trained learner can be saved")
    state = {}
    for key, value in learner.model.state_dict().items():
        state[f"model/{key}"] = value
    for class_id in learner.exemplars.classes:
        state[f"exemplars/{class_id}"] = learner.exemplars.get(class_id)
    for class_id in learner.prototypes.classes:
        state[f"prototypes/{class_id}"] = learner.prototypes.get(class_id)
    metadata = {
        "format_version": _FORMAT_VERSION,
        "config": dataclasses.asdict(learner.config),
        "input_dim": learner.model.input_dim,
        "old_classes": list(learner.old_classes),
        "new_classes": list(learner.new_classes),
        "exemplar_strategy": learner.exemplars.strategy,
    }
    return state, metadata


def save_pilote(learner: PILOTE, path: PathLike) -> Path:
    """Serialise a trained PILOTE learner to a single ``.npz`` checkpoint."""
    state, metadata = pilote_state(learner)
    return save_npz_state(path, state, metadata=metadata)


def pilote_from_state(state: dict, metadata: dict, *, seed: RandomState = None) -> PILOTE:
    """Rebuild a learner from a :func:`pilote_state`-shaped ``(state, metadata)``.

    Arrays are taken as given, not copied: the caller hands over arrays the
    rebuilt learner may keep (freshly loaded ones, or copies).  Weights and
    exemplars land in the active dtype policy.  ``seed`` feeds the learner's
    future training streams only (default: the config's seed).  A learner
    with prototypes comes back with its classifier fitted at
    ``state_version`` 1.  Raises :class:`~repro.exceptions.SerializationError`
    when the metadata names an NCM metric other than Euclidean, the only one
    the classifier serves, or when its config names a field
    :class:`PiloteConfig` does not have or lacks one it has (an archive of
    another version): a missing field is never filled with its default.
    """
    metric = metadata.get("metric", "euclidean")
    if metric != "euclidean":
        raise SerializationError(
            f"unsupported NCM metric {metric!r}; only 'euclidean' is served"
        )
    config_fields = dict(metadata["config"])
    expected = {f.name for f in dataclasses.fields(PiloteConfig)}
    unknown = sorted(set(config_fields) - expected)
    if unknown:
        raise SerializationError(f"unknown PiloteConfig field(s) in metadata: {unknown}")
    missing = sorted(expected - set(config_fields))
    if missing:
        raise SerializationError(f"PiloteConfig field(s) missing from metadata: {missing}")
    config_fields["hidden_dims"] = tuple(config_fields["hidden_dims"])
    config = PiloteConfig(**config_fields)

    learner = PILOTE(config, seed=seed)
    from repro.core.embedding import EmbeddingNetwork  # local import avoids a cycle at module load

    learner.model = EmbeddingNetwork(int(metadata["input_dim"]), config=config)
    model_state = {
        key[len("model/"):]: value
        for key, value in state.items()
        if key.startswith("model/")
    }
    learner.model.load_state_dict(model_state)
    learner.model.eval()

    learner._old_classes = [int(c) for c in metadata["old_classes"]]
    learner._new_classes = [int(c) for c in metadata["new_classes"]]
    learner.exemplars.strategy = metadata.get("exemplar_strategy", config.exemplar_strategy)
    for key, value in state.items():
        if key.startswith("exemplars/"):
            learner.exemplars.set_exemplars(int(key.split("/")[1]), value, copy=False)
    for key, value in state.items():
        if key.startswith("prototypes/"):
            learner.prototypes.set(int(key.split("/")[1]), value)
    if len(learner.prototypes) > 0:
        learner.refit_classifier()
    return learner


def load_pilote(path: PathLike) -> PILOTE:
    """Restore a PILOTE learner saved with :func:`save_pilote`."""
    state = load_npz_state(path)
    metadata = state.get("__metadata__")
    if not isinstance(metadata, dict) or "config" not in metadata:
        raise SerializationError(f"{path} is not a PILOTE checkpoint")
    if metadata.get("format_version") != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported checkpoint version {metadata.get('format_version')!r}"
        )
    arrays = {key: value for key, value in state.items() if key != "__metadata__"}
    return pilote_from_state(arrays, metadata)
