"""Tests for repro.utils.serialization."""

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.utils.serialization import (
    float32_nbytes,
    load_npz_state,
    save_npz_state,
)


class TestSaveLoadRoundTrip:
    def test_round_trip_preserves_arrays(self, tmp_path):
        state = {"weight": np.arange(6, dtype=np.float64).reshape(2, 3), "bias": np.zeros(3)}
        path = save_npz_state(tmp_path / "model", state)
        loaded = load_npz_state(path)
        assert np.allclose(loaded["weight"], state["weight"])
        assert np.allclose(loaded["bias"], state["bias"])

    def test_suffix_is_added(self, tmp_path):
        path = save_npz_state(tmp_path / "model", {"a": np.ones(2)})
        assert path.suffix == ".npz"

    def test_metadata_round_trip(self, tmp_path):
        path = save_npz_state(tmp_path / "m", {"a": np.ones(1)}, metadata={"classes": [1, 2]})
        loaded = load_npz_state(path)
        assert loaded["__metadata__"] == {"classes": [1, 2]}

    def test_bad_metadata_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            save_npz_state(tmp_path / "m", {"a": np.ones(1)}, metadata={"bad": object()})

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            load_npz_state(tmp_path / "does_not_exist.npz")

    def test_nested_directory_created(self, tmp_path):
        path = save_npz_state(tmp_path / "deep" / "dir" / "model", {"a": np.ones(1)})
        assert path.exists()


class TestSizeAccounting:
    def test_float32_nbytes(self):
        assert float32_nbytes(100) == 400

    def test_float32_nbytes_rejects_negative(self):
        with pytest.raises(ValueError):
            float32_nbytes(-1)
