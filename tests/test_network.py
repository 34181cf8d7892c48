"""Tests for layers, networks and pooled heads."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.initializers import WeightInitializer
from repro.nn.lstm_layer import LSTMLayer
from repro.nn.network import LSTMNetwork


class TestLSTMLayer:
    def test_forward_shapes(self):
        layer = LSTMLayer.create(12, 8, WeightInitializer(0))
        xs = np.random.default_rng(0).normal(size=(6, 8))
        hs, cs = layer.forward(xs)
        assert hs.shape == (6, 12) and cs.shape == (6, 12)

    def test_rejects_wrong_width(self):
        layer = LSTMLayer.create(12, 8, WeightInitializer(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((6, 9)))

    def test_outputs_bounded(self):
        layer = LSTMLayer.create(12, 8, WeightInitializer(0))
        xs = np.random.default_rng(1).normal(size=(20, 8)) * 5
        hs, _ = layer.forward(xs)
        assert np.all(np.abs(hs) <= 1.0)

    def test_deterministic(self):
        layer = LSTMLayer.create(12, 8, WeightInitializer(0))
        xs = np.random.default_rng(2).normal(size=(6, 8))
        hs1, _ = layer.forward(xs)
        hs2, _ = layer.forward(xs)
        np.testing.assert_array_equal(hs1, hs2)


class TestNetwork:
    def test_forward_classification(self, tiny_network, tiny_tokens):
        out = tiny_network.forward(tiny_tokens[0])
        assert out.logits.shape == (tiny_network.num_classes,)
        assert len(out.layer_outputs) == tiny_network.num_layers

    def test_forward_per_timestep(self, tiny_config):
        net = LSTMNetwork(tiny_config, 50, 7, per_timestep_head=True)
        tokens = np.arange(tiny_config.seq_length) % 50
        out = net.forward(tokens)
        assert out.logits.shape == (tiny_config.seq_length, 7)
        assert out.prediction().shape == (tiny_config.seq_length,)

    def test_head_pooling_changes_logits(self, tiny_config):
        tokens = np.arange(tiny_config.seq_length) % 50
        plain = LSTMNetwork(tiny_config, 50, 3, seed=1, head_pool=1)
        pooled = LSTMNetwork(tiny_config, 50, 3, seed=1, head_pool=4)
        assert not np.allclose(plain.forward(tokens).logits, pooled.forward(tokens).logits)

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
