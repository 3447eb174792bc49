"""Shared utilities: seeded RNG management, validation, serialization, logging."""

from repro.utils.clock import perf_seconds
from repro.utils.rng import RandomState, resolve_rng
from repro.utils.validation import (
    check_array,
    check_finite,
    check_labels,
    check_probability,
)
from repro.utils.serialization import load_npz_state, save_npz_state
from repro.utils.logging import get_logger

__all__ = [
    "perf_seconds",
    "RandomState",
    "resolve_rng",
    "check_array",
    "check_finite",
    "check_labels",
    "check_probability",
    "save_npz_state",
    "load_npz_state",
    "get_logger",
]
