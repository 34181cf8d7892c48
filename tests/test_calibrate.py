"""Tests for the on-device calibration loop (`repro.nn.calibrate`).

The consumer-side claim under test: fine-tuning on drifted data moves
the *measured* quantities the inference stack derives from the gate
statistics — the DRS skip ratio and the breakpoint placement — so a
frozen calibration goes stale and `repro calibrate` un-stales it.
"""

import copy
import json

import numpy as np
import pytest

from repro.config import LSTMConfig
from repro.core.executor import ExecutionConfig
from repro.core.plan import fingerprint_network
from repro.core.reference import ReferenceExecutor
from repro.errors import ConfigurationError
from repro.nn.backprop import training_step
from repro.nn.calibrate import (
    Adam,
    DriftSpec,
    SGD,
    build_optimizer,
    drift_network,
    drift_report,
    fine_tune,
    measure_gate_statistics,
    synthetic_drift_batch,
)
from repro.nn.model_zoo import build_calibrated_network


def tiny_calibrated(seed=0):
    config = LSTMConfig(hidden_size=24, num_layers=2, seq_length=20, input_size=16)
    return build_calibrated_network(
        config=config, vocab_size=40, num_classes=6, seed=seed
    )


@pytest.fixture
def drifted_setup():
    network = tiny_calibrated()
    frozen = copy.deepcopy(network)
    teacher = drift_network(network, DriftSpec(magnitude=1.0))
    tokens, labels = synthetic_drift_batch(teacher, num_sequences=6, seed=3)
    return network, frozen, teacher, tokens, labels


class TestOptimizers:
    def _quadratic(self, optimizer, steps=60):
        # Minimize ||p - target||^2 elementwise; any sane first-order
        # update rule must shrink it monotonically from this start.
        param = np.array([4.0, -3.0, 2.0])
        target = np.array([1.0, 1.0, 1.0])
        first = float(np.sum((param - target) ** 2))
        for _ in range(steps):
            optimizer.step([param], [2.0 * (param - target)])
        return first, float(np.sum((param - target) ** 2))

    def test_sgd_converges(self):
        first, last = self._quadratic(SGD(lr=0.1))
        assert last < 1e-6 < first

    def test_sgd_momentum_converges(self):
        first, last = self._quadratic(SGD(lr=0.05, momentum=0.9), steps=200)
        assert last < 1e-3 < first

    def test_adam_converges(self):
        first, last = self._quadratic(Adam(lr=0.2), steps=120)
        assert last < 1e-3 < first

    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(ConfigurationError):
            SGD(lr=0.0)
        with pytest.raises(ConfigurationError):
            SGD(lr=0.1, momentum=1.0)
        with pytest.raises(ConfigurationError):
            Adam(lr=-1.0)

    def test_count_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            SGD(lr=0.1).step([np.zeros(2)], [])

    def test_registry(self):
        assert isinstance(build_optimizer("sgd", 0.1), SGD)
        assert isinstance(build_optimizer("adam", 0.1), Adam)
        with pytest.raises(ConfigurationError):
            build_optimizer("lbfgs", 0.1)


class TestDriftNetwork:
    def test_changes_fingerprint_not_original(self):
        network = tiny_calibrated()
        before = fingerprint_network(network)
        drifted = drift_network(network)
        assert fingerprint_network(network) == before
        assert fingerprint_network(drifted) != before

    def test_zero_magnitude_is_identity(self):
        network = tiny_calibrated()
        drifted = drift_network(network, DriftSpec(magnitude=0.0))
        assert fingerprint_network(drifted) == fingerprint_network(network)

    def test_shifts_target_gate_biases(self):
        network = tiny_calibrated()
        spec = DriftSpec()
        drifted = drift_network(network, spec)
        np.testing.assert_allclose(
            drifted.layers[0].weights.b_o - network.layers[0].weights.b_o,
            spec.output_bias_shift,
        )
        np.testing.assert_allclose(
            drifted.layers[0].weights.b_f - network.layers[0].weights.b_f,
            spec.forget_bias_shift,
        )


class TestSyntheticDriftBatch:
    def test_shapes_and_determinism(self):
        teacher = drift_network(tiny_calibrated())
        tokens, labels = synthetic_drift_batch(teacher, num_sequences=5, seed=9)
        assert tokens.shape == (5, teacher.config.seq_length)
        assert labels.shape == (5,)
        again = synthetic_drift_batch(teacher, num_sequences=5, seed=9)
        np.testing.assert_array_equal(tokens, again[0])
        np.testing.assert_array_equal(labels, again[1])

    def test_labels_are_teacher_predictions(self):
        teacher = drift_network(tiny_calibrated())
        tokens, labels = synthetic_drift_batch(teacher, num_sequences=4, seed=2)
        reference = ReferenceExecutor(teacher, ExecutionConfig()).run_batch(tokens)
        np.testing.assert_array_equal(labels, reference.predictions())


class TestFineTune:
    def test_loss_decreases_and_weights_move(self, drifted_setup):
        network, _, _, tokens, labels = drifted_setup
        result = fine_tune(network, tokens, labels, steps=6, lr=5e-2)
        assert result.steps == 6
        assert result.losses[-1] < result.losses[0]
        assert result.weights_changed

    def test_keep_final_tape(self, drifted_setup):
        network, _, _, tokens, labels = drifted_setup
        result = fine_tune(network, tokens, labels, steps=2, keep_final_tape=True)
        assert result.final_tape is not None
        assert result.final_tape.saved_bytes() > 0
        assert fine_tune(network, tokens, labels, steps=1).final_tape is None

    def test_rejects_zero_steps(self, drifted_setup):
        network, _, _, tokens, labels = drifted_setup
        with pytest.raises(ConfigurationError):
            fine_tune(network, tokens, labels, steps=0)


class TestGateStatisticsShift:
    """Post-calibration weights must move the measured consumer figures."""

    def test_drift_report_shifts(self, drifted_setup):
        network, frozen, _, tokens, labels = drifted_setup
        fine_tune(network, tokens, labels, steps=6, lr=5e-2)
        report = drift_report(
            frozen, network, tokens, alpha_inter=0.05, alpha_intra=0.1
        )
        assert report.shifted
        assert report.skip_fraction_delta != 0.0

    def test_identical_weights_do_not_shift(self, drifted_setup):
        _, frozen, _, tokens, _ = drifted_setup
        report = drift_report(
            frozen, copy.deepcopy(frozen), tokens, alpha_inter=0.05, alpha_intra=0.1
        )
        assert not report.shifted
        assert report.breakpoints_moved == 0

    def test_as_dict_round_trips_to_json(self, drifted_setup):
        _, frozen, _, tokens, _ = drifted_setup
        stats = measure_gate_statistics(frozen, tokens, alpha_inter=0.05, alpha_intra=0.1)
        payload = json.dumps(stats.as_dict())
        assert json.loads(payload)["skip_fraction"] == stats.skip_fraction


class TestCalibrateCli:
    def test_calibrate_smoke_writes_valid_record(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import read_jsonl
        from repro.obs.schema import validate_jsonl_file

        out = tmp_path / "calibrate.jsonl"
        code = main(
            [
                "calibrate", "MR", "--steps", "2", "--sequences", "3",
                "--record", str(out),
            ]
        )
        assert code == 0
        assert validate_jsonl_file(out) == 1
        record = read_jsonl(out)[0]
        assert record.mode == "train"
        assert record.memory is not None
        assert record.memory["saved_bytes"] > 0
        assert record.memory["measured_peak_bytes"] >= record.memory["saved_bytes"]
        assert (
            record.config["fingerprint_before"] != record.config["fingerprint_after"]
        )
        captured = capsys.readouterr()
        assert "DRS skip ratio" in captured.out
        assert "breakpoints" in captured.out


def test_fine_tune_reduces_loss_on_fresh_teacher_batch(drifted_setup):
    # End-to-end sanity: after calibration the student predicts the
    # drifted teacher's labels on the training batch far better.
    network, _, teacher, tokens, labels = drifted_setup
    before_loss, _ = training_step(network, tokens, labels)
    result = fine_tune(network, tokens, labels, steps=8, lr=5e-2)
    assert result.losses[-1] < before_loss * 0.5
