"""Tests for PiloteConfig and the EmbeddingNetwork backbone."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.core.config import PiloteConfig
from repro.core.embedding import EMBED_ROWS, EmbeddingNetwork
from repro.exceptions import ConfigurationError, ShapeError


class TestPiloteConfig:
    def test_paper_defaults_match_section_6(self):
        config = PiloteConfig.paper_defaults()
        assert config.hidden_dims == (1024, 512, 128, 64)
        assert config.embedding_dim == 128
        assert config.alpha == 0.5
        assert config.learning_rate == 0.01
        assert config.early_stopping_threshold == 1e-4
        assert config.early_stopping_patience == 5

    def test_layer_sizes_includes_input_and_embedding(self):
        config = PiloteConfig(hidden_dims=(16, 8), embedding_dim=4)
        assert config.layer_sizes(80) == (80, 16, 8, 4)

    def test_layer_sizes_rejects_bad_input_dim(self):
        with pytest.raises(ConfigurationError):
            PiloteConfig().layer_sizes(0)

    def test_with_overrides(self):
        config = PiloteConfig()
        other = config.with_overrides(alpha=0.25, margin=2.0)
        assert other.alpha == 0.25 and other.margin == 2.0
        assert config.alpha == 0.5  # original unchanged (frozen dataclass)

    def test_edge_lightweight_is_smaller(self):
        light = PiloteConfig.edge_lightweight()
        paper = PiloteConfig.paper_defaults()
        assert sum(light.hidden_dims) < sum(paper.hidden_dims)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hidden_dims": ()},
            {"hidden_dims": (0, 4)},
            {"embedding_dim": 0},
            {"alpha": 1.5},
            {"margin": 0.0},
            {"contrastive_variant": "cosine"},
            {"learning_rate": 0.0},
            {"batch_size": 1},
            {"max_epochs_pretrain": 0},
            {"cache_size": 0},
            {"exemplar_strategy": "kmeans"},
            {"max_pairs_per_batch": 0},
            {"early_stopping_patience": 0},
            {"early_stopping_patience": -1},
            {"early_stopping_threshold": -1e-9},
            {"seed": -1},
        ],
    )
    def test_invalid_configurations(self, kwargs):
        with pytest.raises(ConfigurationError):
            PiloteConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"early_stopping_threshold": 0.0}, {"seed": 0}, {"seed": None}]
    )
    def test_boundary_values_are_accepted(self, kwargs):
        config = PiloteConfig(**kwargs)
        assert all(getattr(config, name) == value for name, value in kwargs.items())


class TestEmbeddingNetwork:
    def _network(self, input_dim=10):
        config = PiloteConfig(hidden_dims=(16, 8), embedding_dim=4, seed=0)
        return EmbeddingNetwork(input_dim, config=config, rng=0)

    def test_forward_and_embed_shapes(self):
        network = self._network()
        batch = np.random.default_rng(0).normal(size=(6, 10))
        assert network(Tensor(batch)).shape == (6, 4)
        assert network.embed(batch).shape == (6, 4)

    def test_embed_accepts_single_row(self):
        network = self._network()
        assert network.embed(np.zeros(10)).shape == (1, 4)

    def test_embed_is_inference_mode_and_restores_training_flag(self):
        network = self._network()
        network.train()
        network.embed(np.zeros((3, 10)))
        assert network.training  # restored

    def test_embed_deterministic_in_eval(self):
        network = self._network()
        batch = np.random.default_rng(1).normal(size=(5, 10))
        assert np.allclose(network.embed(batch), network.embed(batch))

    def test_embed_chunking_matches_single_pass(self):
        network = self._network()
        batch = np.random.default_rng(2).normal(size=(EMBED_ROWS + 5, 10))
        chunked = network.embed(batch)
        assert np.allclose(chunked, network.backbone.array_forward(batch))
        assert np.array_equal(chunked[:EMBED_ROWS], network.embed(batch[:EMBED_ROWS]))

    def test_wrong_input_dim_raises(self):
        network = self._network()
        with pytest.raises(ShapeError):
            network(Tensor(np.zeros((2, 7))))

    def test_training_loss_tracks_batch_statistics_like_the_forward(self):
        # One training step as one op updates each BatchNorm's running
        # statistics from the batch, as a training-mode forward does.
        ours, theirs = self._network(), self._network()
        batch = np.random.default_rng(3).normal(size=(8, 10)) * 2.0 + 1.0
        pairs = dict(left=np.array([0, 1, 2]), right=np.array([3, 4, 5]),
                     same_class=np.array([1.0, 0.0, 1.0]), margin=1.0, variant="squared")
        loss = ours.training_loss(batch, **pairs)
        assert loss.op == "pilote_step" and loss.shape == ()
        theirs(Tensor(batch))
        for (name, value), (_, expected) in zip(ours.named_buffers(), theirs.named_buffers()):
            np.testing.assert_allclose(value, expected, rtol=1e-12, err_msg=name)
        assert not np.allclose(ours.embed(batch), self._network().embed(batch))

    def test_paper_backbone_dimensions(self):
        network = EmbeddingNetwork(80, config=PiloteConfig.paper_defaults(), rng=0)
        assert network.embed(np.zeros((2, 80))).shape == (2, 128)
