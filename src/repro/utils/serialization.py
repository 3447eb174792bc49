"""Serialization helpers for model state dictionaries.

Model parameters are stored as flat ``{name: ndarray}`` mappings (a "state
dict").  These helpers persist them as ``.npz`` archives and compute their
in-memory / on-wire footprint, which the edge-transfer accounting relies on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.exceptions import SerializationError

PathLike = Union[str, Path]


def save_npz_state(path: PathLike, state: Dict[str, np.ndarray], *, metadata: dict = None) -> Path:
    """Persist a state dict (plus optional JSON-encodable metadata) to ``path``.

    Returns the resolved path with a ``.npz`` suffix.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    payload = {key: np.asarray(value) for key, value in state.items()}
    if metadata is not None:
        try:
            payload["__metadata__"] = np.frombuffer(
                json.dumps(metadata).encode("utf-8"), dtype=np.uint8
            )
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"metadata is not JSON-serialisable: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **payload)
    return path


def load_npz_state(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a state dict previously written by :func:`save_npz_state`.

    The metadata entry, if present, is returned under the ``"__metadata__"``
    key as a decoded dictionary.
    """
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"state file not found: {path}")
    with np.load(path, allow_pickle=False) as archive:
        state: Dict[str, np.ndarray] = {}
        for key in archive.files:
            if key == "__metadata__":
                raw = bytes(archive[key].tobytes())
                state[key] = json.loads(raw.decode("utf-8"))
            else:
                state[key] = np.array(archive[key])
    return state


def float32_nbytes(n_values: int) -> int:
    """Number of bytes needed to store ``n_values`` float32 scalars."""
    if n_values < 0:
        raise ValueError(f"n_values must be non-negative, got {n_values}")
    return int(n_values) * 4
