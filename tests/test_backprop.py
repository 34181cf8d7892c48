"""Tests for the memory-frugal BPTT (`repro.nn.backprop`).

The contracts under test:

* **One forward** — the training tape (logits, per-layer ``Y`` and ``C``)
  is the exact executor's run, bit-identical to the frozen
  ``ReferenceExecutor``, including right after an in-place optimizer step.
* **Faithful rebuild** — the gates backward rebuilds from the tape
  reproduce ``Y`` and ``C`` to rounding.
* **Correctness** — analytic gradients must agree with central finite
  differences (the `gradcheck` oracle) to 1e-6 relative error.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.gradcheck import (
    DEFAULT_TOLERANCE,
    finite_difference_check,
    relative_error,
)
from repro.config import LSTMConfig
from repro.core.executor import ExecutionConfig, ExecutionMode
from repro.core.reference import ReferenceExecutor
from repro.errors import ConfigurationError, ShapeError
from repro.nn.backprop import (
    ELEMENT_BYTES,
    analytic_saved_bytes,
    backward,
    measure_training_memory,
    rebuild_gates,
    softmax_cross_entropy,
    training_forward,
    training_step,
)
from repro.nn.calibrate import SGD
from repro.nn.network import LSTMNetwork


def small_network(
    hidden=10,
    layers=2,
    seq_len=7,
    input_size=8,
    vocab=30,
    classes=4,
    seed=0,
    per_timestep_head=False,
    head_pool=1,
):
    config = LSTMConfig(
        hidden_size=hidden, num_layers=layers, seq_length=seq_len, input_size=input_size
    )
    return LSTMNetwork(
        config,
        vocab_size=vocab,
        num_classes=classes,
        seed=seed,
        per_timestep_head=per_timestep_head,
        head_pool=head_pool,
    )


def batch_for(network, batch=3, seed=0):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, network.vocab_size, size=(batch, network.config.seq_length))
    if network.per_timestep_head:
        labels = rng.integers(0, network.num_classes, size=tokens.shape)
    else:
        labels = rng.integers(0, network.num_classes, size=batch)
    return tokens, labels


def loss_only(network, tokens, labels):
    return softmax_cross_entropy(training_forward(network, tokens).logits, labels)[0]


def reference_run(network, tokens):
    return ReferenceExecutor(network, ExecutionConfig(mode=ExecutionMode.BASELINE)).run_batch(
        tokens, collect_states=True
    )


def assert_tape_is_reference(tape, network, tokens):
    expected = reference_run(network, tokens)
    assert np.array_equal(tape.logits, expected.logits)
    for layer, y, c in zip(tape.layers, expected.layer_outputs, expected.layer_states):
        assert np.array_equal(layer.y, y)
        assert np.array_equal(layer.c, c)


class TestTrainingConfig:
    def test_rejects_nonpositive_truncation(self):
        net = small_network()
        tokens, labels = batch_for(net)
        with pytest.raises(ConfigurationError):
            training_step(net, tokens, labels, truncation=0)


class TestForwardTape:
    def test_logits_match_inference_forward(self):
        # Both head kinds: the pooled readout and the per-timestep one.
        for per_timestep, pool in ((False, 3), (True, 1)):
            net = small_network(per_timestep_head=per_timestep, head_pool=pool)
            tokens, _ = batch_for(net)
            tape = training_forward(net, tokens)
            expected = reference_run(net, tokens)
            assert np.array_equal(tape.logits, expected.logits)

    def test_tape_is_the_reference_run(self):
        net = small_network(layers=3, head_pool=2, seed=4)
        tokens, _ = batch_for(net, batch=5, seed=4)
        assert_tape_is_reference(training_forward(net, tokens), net, tokens)

    def test_forward_after_an_optimizer_step_sees_the_new_weights(self):
        """The training forward builds a private executor per call, so an
        in-place step can never be served by programs or token rows keyed
        on the old weights' digests — even though nothing invalidated the
        memoized fingerprints."""
        net = small_network(seed=6)
        tokens, labels = batch_for(net, seed=6)
        params = net.parameters()
        optimizer = SGD(lr=0.5)
        for _ in range(2):
            tape = training_forward(net, tokens)
            _, grads = backward(tape, labels)
            optimizer.step(params, grads.arrays())
            assert_tape_is_reference(training_forward(net, tokens), net, tokens)

    def test_rejects_out_of_vocab_tokens(self):
        net = small_network()
        tokens = np.full((2, net.config.seq_length), net.vocab_size)
        with pytest.raises(ShapeError):
            training_forward(net, tokens)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 7), (7,)])
    def test_rejects_degenerate_batches(self, shape):
        """An empty batch has nothing to score: it must be refused at the
        door, not turned into a NaN loss or a bare reshape error."""
        net = small_network()
        tokens = np.zeros(shape, dtype=np.int64)
        labels = np.zeros(shape[:1], dtype=np.int64)
        with pytest.raises(ShapeError):
            training_forward(net, tokens)
        with pytest.raises(ShapeError):
            training_step(net, tokens, labels)


class TestRebuild:
    def test_rebuilt_gates_reproduce_the_tape(self):
        net = small_network(hidden=12, seq_len=9, seed=3)
        tokens, _ = batch_for(net, batch=4, seed=3)
        tape = training_forward(net, tokens)
        hidden = net.config.hidden_size
        xs = net.embedding[tokens]
        for layer, saved in zip(net.layers, tape.layers):
            gates, h_prev = rebuild_gates(layer.weights, xs, saved.y)
            f, i, g, o = (
                gates[:, k * hidden : (k + 1) * hidden].reshape(saved.y.shape)
                for k in range(4)
            )
            c_prev = np.zeros_like(saved.c)
            c_prev[:, 1:] = saved.c[:, :-1]
            np.testing.assert_allclose(o * np.tanh(saved.c), saved.y, rtol=0, atol=1e-12)
            np.testing.assert_allclose(f * c_prev + i * g, saved.c, rtol=0, atol=1e-12)
            assert np.array_equal(h_prev.reshape(saved.y.shape)[:, 1:], saved.y[:, :-1])
            xs = saved.y


class TestSoftmaxCrossEntropy:
    def test_matches_manual_log_softmax(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        loss, _ = softmax_cross_entropy(logits, labels)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(4), labels]))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_dlogits_rows_sum_to_zero(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(3, 5, 4))
        labels = rng.integers(0, 4, size=(3, 5))
        _, dlogits = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(dlogits.sum(axis=-1), 0.0, atol=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros((4,), dtype=int))


class TestFiniteDifferences:
    """Analytic gradients vs the central-difference oracle."""

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans())
    def test_gradcheck_lstm(self, seed, per_timestep):
        net = small_network(
            hidden=6, layers=2, seq_len=5, input_size=5, vocab=20, classes=3,
            seed=seed % 1000, per_timestep_head=per_timestep,
        )
        tokens, labels = batch_for(net, batch=2, seed=seed)
        _, grads = training_step(net, tokens, labels)
        err = finite_difference_check(
            lambda: loss_only(net, tokens, labels),
            net.parameters(),
            grads.arrays(),
            rng=np.random.default_rng(seed),
            coords_per_array=3,
        )
        assert err <= DEFAULT_TOLERANCE

    def test_gradcheck_pooled_head(self):
        net = small_network(head_pool=4, seq_len=8, seed=7)
        tokens, labels = batch_for(net, seed=7)
        _, grads = training_step(net, tokens, labels)
        err = finite_difference_check(
            lambda: loss_only(net, tokens, labels),
            net.parameters(),
            grads.arrays(),
            rng=np.random.default_rng(7),
        )
        assert err <= DEFAULT_TOLERANCE


class TestTruncation:
    def test_window_equal_to_length_matches_full_bptt(self):
        net = small_network(seq_len=6)
        tokens, labels = batch_for(net)
        _, full = training_step(net, tokens, labels)
        _, windowed = training_step(net, tokens, labels, truncation=6)
        assert full.array_equal(windowed)

    def test_short_window_changes_recurrent_gradients(self):
        net = small_network(seq_len=12)
        tokens, labels = batch_for(net)
        _, full = training_step(net, tokens, labels)
        _, truncated = training_step(net, tokens, labels, truncation=3)
        assert not full.array_equal(truncated)


class TestMemoryAccounting:
    def test_tape_bytes_match_analytic_model(self):
        net = small_network()
        tokens, _ = batch_for(net, batch=4)
        tape = training_forward(net, tokens)
        assert tape.saved_bytes() == analytic_saved_bytes(net, 4, net.config.seq_length)

    def test_memory_report_keys_and_ratio(self):
        net = small_network(layers=2)
        tokens, _ = batch_for(net)
        report = training_forward(net, tokens).memory_report()
        assert set(report) == {
            "layer0_saved_bytes", "layer1_saved_bytes", "saved_bytes", "analytic_saved_bytes",
        }
        assert report["saved_bytes"] / report["analytic_saved_bytes"] == 1.0

    def test_analytic_model_counts_elements(self):
        net = small_network(hidden=10, layers=2, seq_len=7, input_size=8)
        assert analytic_saved_bytes(net, 3, 7) == 2 * 3 * 7 * 10 * 2 * ELEMENT_BYTES

    def test_measured_memory_tracks_analytic_model(self):
        net = small_network(hidden=16, seq_len=32)
        tokens, labels = batch_for(net, batch=4)
        # The first call in a process also imports the executor's lazily
        # loaded modules; measure a warm step.
        training_step(net, tokens, labels)
        measured = measure_training_memory(net, tokens, labels)
        assert measured["measured_peak_bytes"] >= measured["measured_saved_bytes"] > 0
        # tracemalloc's retained-delta must track the analytic model.
        assert measured["measured_saved_bytes"] == pytest.approx(
            measured["analytic_saved_bytes"], rel=0.25
        )


class TestRelativeError:
    def test_absolute_near_zero(self):
        assert relative_error(0.0, 1e-9) == pytest.approx(1e-9)

    def test_relative_when_large(self):
        assert relative_error(100.0, 101.0) == pytest.approx(1.0 / 101.0)
