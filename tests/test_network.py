"""Tests for networks and pooled heads."""

import numpy as np
import pytest

from repro.core.executor import ExecutionConfig
from repro.core.reference import ReferenceExecutor
from repro.errors import ConfigurationError, ShapeError
from repro.nn.network import LSTMNetwork


def reference_run(network, tokens):
    """An exact BASELINE run through the frozen oracle."""
    return ReferenceExecutor(network, ExecutionConfig()).run_batch(tokens)


class TestNetwork:
    def test_forward_classification(self, tiny_network, tiny_tokens):
        out = reference_run(tiny_network, tiny_tokens[:1])
        assert out.logits.shape == (1, tiny_network.num_classes)
        assert len(out.layer_outputs) == tiny_network.num_layers

    def test_forward_per_timestep(self, tiny_config):
        net = LSTMNetwork(tiny_config, 50, 7, per_timestep_head=True)
        tokens = np.arange(tiny_config.seq_length) % 50
        out = reference_run(net, tokens[None])
        assert out.logits.shape == (1, tiny_config.seq_length, 7)
        assert out.predictions().shape == (1, tiny_config.seq_length)

    def test_head_pooling_changes_logits(self, tiny_config):
        tokens = (np.arange(tiny_config.seq_length) % 50)[None]
        plain = LSTMNetwork(tiny_config, 50, 3, seed=1, head_pool=1)
        pooled = LSTMNetwork(tiny_config, 50, 3, seed=1, head_pool=4)
        assert not np.allclose(
            reference_run(plain, tokens).logits, reference_run(pooled, tokens).logits
        )

    def test_pool_top_is_mean_of_tail(self, tiny_config):
        net = LSTMNetwork(tiny_config, 50, 3, head_pool=3)
        rng = np.random.default_rng(0)
        top = rng.normal(size=(tiny_config.seq_length, tiny_config.hidden_size))
        np.testing.assert_allclose(net.pool_top(top), top[-3:].mean(axis=0))

    def test_pool_top_batched(self, tiny_config):
        net = LSTMNetwork(tiny_config, 50, 3, head_pool=2)
        rng = np.random.default_rng(0)
        top = rng.normal(size=(5, tiny_config.seq_length, tiny_config.hidden_size))
        np.testing.assert_allclose(net.pool_top(top), top[:, -2:, :].mean(axis=1))

    def test_embed_validates_range(self, tiny_network):
        with pytest.raises(ShapeError):
            tiny_network.embed(np.array([0, tiny_network.vocab_size]))

    def test_embed_validates_rank(self, tiny_network, tiny_tokens):
        with pytest.raises(ShapeError):
            tiny_network.embed(tiny_tokens)  # 2-D

    def test_invalid_head_pool(self, tiny_config):
        with pytest.raises(ConfigurationError):
            LSTMNetwork(tiny_config, 50, 3, head_pool=tiny_config.seq_length + 1)

    def test_invalid_vocab(self, tiny_config):
        with pytest.raises(ConfigurationError):
            LSTMNetwork(tiny_config, 1, 3)

    def test_seed_determinism(self, tiny_config):
        a = LSTMNetwork(tiny_config, 50, 3, seed=9)
        b = LSTMNetwork(tiny_config, 50, 3, seed=9)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        np.testing.assert_array_equal(a.layers[0].weights.u_f, b.layers[0].weights.u_f)
