"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import resolve_rng, spawn_rngs


class TestResolveRng:
    def test_from_int_is_deterministic(self):
        first = resolve_rng(3).normal(size=5)
        second = resolve_rng(3).normal(size=5)
        assert np.allclose(first, second)

    def test_different_seeds_differ(self):
        assert not np.allclose(resolve_rng(1).normal(size=5), resolve_rng(2).normal(size=5))

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert resolve_rng(generator) is generator

    def test_none_returns_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)


class TestSpawnRngs:
    def test_spawn_count(self):
        assert len(spawn_rngs(0, 4)) == 4

    def test_spawned_streams_are_independent(self):
        streams = spawn_rngs(0, 2)
        assert not np.allclose(streams[0].normal(size=5), streams[1].normal(size=5))

    def test_spawn_deterministic_from_seed(self):
        a = [g.normal() for g in spawn_rngs(7, 3)]
        b = [g.normal() for g in spawn_rngs(7, 3)]
        assert np.allclose(a, b)

    def test_spawn_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_zero_returns_empty(self):
        assert spawn_rngs(0, 0) == []
