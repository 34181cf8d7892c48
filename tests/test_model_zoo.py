"""Tests for the calibrated model zoo — the trained-checkpoint stand-in.

These tests assert the *statistical contracts* the optimizations rely on:
saturated pre-activations, bimodal output gates, write-gated memory
dimensions, boundary resets, and informativeness-scaled heads.
"""

import copy
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.config import LSTMConfig, get_app
from repro.core.executor import ExecutionConfig
from repro.core.reference import ReferenceExecutor
from repro.errors import ConfigurationError
from repro.nn.activations import sigmoid
from repro.nn.model_zoo import (
    APP_PROFILES,
    CalibrationProfile,
    _informativeness_scale_head,
    build_calibrated_network,
    profile_for_app,
)
from tests.grading import assert_bytes_equal


@pytest.fixture(scope="module")
def mr_network():
    """A real Table II model (the smallest one) built once per module."""
    return build_calibrated_network(get_app("MR"), seed=0)


def reference_run(network, tokens):
    """An exact BASELINE run of a ``(B, T)`` batch through the frozen oracle."""
    return ReferenceExecutor(network, ExecutionConfig()).run_batch(tokens)


def gate_stats(network, tokens):
    """Output-gate activations over a short exact run."""
    layer0 = reference_run(network, tokens[None]).layer_outputs[0][0]
    w = network.layers[0].weights
    xs = network.embed(tokens)
    h_prev = np.vstack([np.zeros(w.hidden_size), layer0[:-1]])
    o_pre = xs @ w.w_o.T + h_prev @ w.u_o.T + w.b_o
    return sigmoid(o_pre)


class TestProfile:
    def test_default_profile_valid(self):
        CalibrationProfile()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CalibrationProfile(input_preact_std=0.0)
        with pytest.raises(ConfigurationError):
            CalibrationProfile(recurrent_density=0.0)

    def test_every_app_has_profile(self):
        for name in ("IMDB", "MR", "BABI", "SNLI", "PTB", "MT"):
            assert profile_for_app(name) is APP_PROFILES[name]

    def test_unknown_app_gets_default(self):
        assert profile_for_app("XYZ") is not None


class TestCalibratedStatistics:
    def test_output_gate_near_zero_mass(self, mr_network):
        """Roughly half of the output-gate activations are near zero —
        the fuel for the paper's ~50 % row compression."""
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, mr_network.vocab_size, size=mr_network.config.seq_length)
        o = gate_stats(mr_network, tokens)
        frac = (o < 0.05).mean()
        assert 0.3 < frac < 0.65

    def test_recurrent_row_l1_near_target(self, mr_network):
        profile = profile_for_app("MR")
        d = np.abs(mr_network.layers[0].weights.u_f).sum(axis=1)
        # Boundary channel row is zeroed; exclude it.
        assert abs(d[:-1].mean() - profile.recurrent_row_l1) < 1.0

    def test_input_preacts_saturate(self, mr_network):
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, mr_network.vocab_size, size=mr_network.config.seq_length)
        xs = mr_network.embed(tokens)
        w = mr_network.layers[0].weights
        # The input/candidate gates carry the full spread (the forget and
        # output gates are deliberately bias-dominated).
        preact = xs @ w.w_i.T
        assert preact.std() > 1.5  # a fair share beyond the sensitive area

    def test_boundary_tokens_designated(self, mr_network):
        ids = mr_network.boundary_token_ids
        profile = profile_for_app("MR")
        expected = round(profile.boundary_rate * mr_network.vocab_size)
        assert len(ids) == max(1, expected)
        np.testing.assert_array_equal(
            mr_network.embedding[ids, -1], 1.0
        )

    def test_boundary_closes_gates(self, mr_network):
        """At a boundary token the forget and output gates shut down."""
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, mr_network.vocab_size, size=mr_network.config.seq_length)
        boundary = mr_network.boundary_token_ids[0]
        tokens[6] = boundary
        layer0 = reference_run(mr_network, tokens[None]).layer_outputs[0][0]
        w = mr_network.layers[0].weights
        xs = mr_network.embed(tokens)
        h_prev = layer0[5]
        f_pre = xs[6] @ w.w_f.T + w.u_f @ h_prev + w.b_f
        o_pre = xs[6] @ w.w_o.T + w.u_o @ h_prev + w.b_o
        assert np.median(sigmoid(f_pre)) < 0.35
        assert np.median(sigmoid(o_pre)) < 0.1

    def test_boundary_channel_regenerates_flag(self, mr_network):
        """The last hidden dim fires at boundaries and stays quiet else."""
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, mr_network.vocab_size, size=mr_network.config.seq_length)
        boundary = mr_network.boundary_token_ids[0]
        tokens[4] = boundary
        non_boundary = np.setdiff1d(tokens, mr_network.boundary_token_ids)
        channel = reference_run(mr_network, tokens[None]).layer_outputs[0][0, :, -1]
        assert channel[4] > 0.5
        boundary_ids = set(mr_network.boundary_token_ids.tolist())
        quiet = [channel[t] for t in range(len(tokens)) if tokens[t] not in boundary_ids]
        assert np.max(np.abs(quiet)) < 0.1
        del non_boundary

    def test_head_informativeness_scaling(self, mr_network):
        """Head columns of low-activity dims carry less weight."""
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, mr_network.vocab_size, size=(4, mr_network.config.seq_length))
        hs = reference_run(mr_network, tokens).layer_outputs[-1].reshape(
            -1, mr_network.config.hidden_size
        )
        rms = np.sqrt((hs**2).mean(axis=0))
        norms = np.abs(mr_network.head_weight).mean(axis=0)
        quiet = rms < np.quantile(rms, 0.3)
        loud = rms > np.quantile(rms, 0.7)
        assert norms[quiet].mean() < norms[loud].mean()

    def test_head_probe_reads_the_oracles_bytes(self, mr_network):
        """The probe's top layer is ReferenceExecutor's, byte for byte, so
        the scaled head does not depend on the BLAS thread split or on the
        helper thread walking half the probe rows."""
        network = copy.deepcopy(mr_network)
        head = np.random.default_rng(5).normal(size=network.head_weight.shape)
        network.head_weight = head.copy()
        with ThreadPoolExecutor(1) as helper:
            _informativeness_scale_head(network, np.random.default_rng(6), helper)

        probe = np.random.default_rng(6).integers(
            0, network.vocab_size, size=(4, network.config.seq_length)
        )
        top = reference_run(network, probe).layer_outputs[-1]
        hs = top.reshape(-1, network.config.hidden_size)
        rms = np.sqrt((hs**2).mean(axis=0))
        scale = rms / max(float(rms.mean()), 1e-12)
        assert_bytes_equal(network.head_weight, head * scale[None, :])


class TestBuilders:
    def test_custom_config_build(self):
        cfg = LSTMConfig(hidden_size=16, num_layers=2, seq_length=8, input_size=12)
        net = build_calibrated_network(
            config=cfg, vocab_size=40, num_classes=4, seed=1
        )
        assert net.num_layers == 2
        out = reference_run(net, (np.arange(8) % 40)[None])
        assert out.logits.shape == (1, 4)

    def test_missing_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            build_calibrated_network(config=None, vocab_size=None, num_classes=None)

    def test_per_timestep_head_for_lm(self):
        net = build_calibrated_network(get_app("PTB"), seed=0)
        assert net.per_timestep_head
        assert net.head_pool == 1

    def test_pooled_head_for_classification(self, mr_network):
        assert not mr_network.per_timestep_head
        assert mr_network.head_pool == get_app("MR").model.seq_length // 4

    def test_seed_determinism(self, tiny_app_config):
        a = build_calibrated_network(tiny_app_config, seed=11)
        b = build_calibrated_network(tiny_app_config, seed=11)
        np.testing.assert_array_equal(a.layers[0].weights.u_f, b.layers[0].weights.u_f)
        np.testing.assert_array_equal(a.head_weight, b.head_weight)
