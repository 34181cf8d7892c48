"""Quantized weight memory: error bounds, policy plumbing, the quantized fleet.

Covers the ``repro.nn.quantize`` contract end to end:

* **Per-element error bounds** (hypothesis property tests): the symmetric
  per-row int8 scheme reconstructs within ``scale / 2`` everywhere,
  all-zero rows exactly; fp16 stays within its ``2**-11`` relative
  rounding in the normal range.
* **Policy plumbing**: the fp64 policy is a strict no-op — bit-identical
  to the frozen reference in all five execution modes — a quantized
  executor equals the reference run on the dequantized weights, and
  quantized policies keep end-task predictions within the documented
  tolerance.
* **The quantized fleet**: a forked worker runs the parent's quantized
  executor, byte-identical to quantizing in process; that executor runs
  the codes of direct quantization and holds one float64 reconstruction
  per layer beyond them.
* **Priced traffic**: at one threshold set an int8 run moves fewer
  weight bytes than fp64 in its run record.
"""

from __future__ import annotations

import copy
import dataclasses
import multiprocessing

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import LSTMConfig
from repro.core.executor import ZERO_PRUNE_FRACTION, ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.pipeline import OptimizedLSTM
from repro.core.reference import ReferenceExecutor
from repro.errors import ConfigurationError
from repro.nn.lstm_layer import LSTMLayer
from repro.nn.network import LSTMNetwork
from repro.nn.pruning import prune_cell_weights
from repro.nn.quantize import (
    INT8_LEVELS,
    PRECISIONS,
    Precision,
    QuantizedMatrix,
    dequantize_rows,
    quantize_cell_weights,
    quantize_matrix,
    quantize_rows,
)
from repro.obs import Recorder
from repro.runtime import FleetServer

from tests.grading import assert_meets_grade

#: Documented end-task tolerance: minimum prediction agreement with the
#: fp64 policy on the small test workloads (mirrors bench_quantization's
#: gate on the acceptance workload).
MIN_AGREEMENT = {"fp16": 1.0, "int8": 0.9}

MODE_CONFIGS = {
    ExecutionMode.BASELINE: {},
    ExecutionMode.INTER: {"alpha_inter": 50.0, "mts": 3},
    ExecutionMode.INTRA: {"alpha_intra": 0.4},
    ExecutionMode.COMBINED: {"alpha_inter": 50.0, "alpha_intra": 0.4, "mts": 3},
    ExecutionMode.ZERO_PRUNE: {},
}

ALL_MODES = list(ExecutionMode)


def dequantized_network(network: LSTMNetwork, cells) -> LSTMNetwork:
    """``network`` with each layer's weights replaced by the cell's float64
    reconstruction (embedding and head shared)."""
    deq = copy.copy(network)
    deq.layers = [LSTMLayer(cell.dequantized) for cell in cells]
    return deq


def build_case(hidden=20, layers=2, seq=10, batch=5, seed=3):
    config = LSTMConfig(
        hidden_size=hidden, num_layers=layers, seq_length=seq, input_size=hidden
    )
    network = LSTMNetwork(config, 60, 5, seed=seed)
    rng = np.random.default_rng(seed + 1)
    tokens = rng.integers(0, 60, size=(batch, seq))
    return network, tokens


matrices = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)


class TestQuantizePrimitives:
    @settings(max_examples=200, deadline=None)
    @given(matrix=matrices)
    def test_int8_error_bounded_by_half_step(self, matrix):
        codes, scales = quantize_rows(matrix)
        assert codes.dtype == np.int8
        assert np.abs(codes.view(np.int8)).max(initial=0) <= INT8_LEVELS
        err = np.abs(dequantize_rows(codes, scales) - matrix)
        # Rows with scale 0 are all-zero rows: exact reconstruction.
        bound = np.where(scales > 0.0, scales / 2.0, 0.0)
        assert np.all(err <= bound[:, None] + 1e-300)

    @settings(max_examples=100, deadline=None)
    @given(matrix=matrices)
    def test_zero_rows_reconstruct_exactly(self, matrix):
        matrix[0, :] = 0.0
        codes, scales = quantize_rows(matrix)
        assert scales[0] == 0.0
        assert np.array_equal(dequantize_rows(codes, scales)[0], matrix[0])

    @settings(max_examples=100, deadline=None)
    @given(
        matrix=hnp.arrays(
            dtype=np.float64,
            shape=(6, 8),
            elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        )
    )
    def test_fp16_relative_error_in_normal_range(self, matrix):
        q = quantize_matrix(matrix, Precision.parse("fp16"))
        deq = q.dequantize()
        # 2**-11 relative bound holds for fp16-normal magnitudes; smaller
        # values land in the subnormal range where the error is absolute.
        normal = np.abs(matrix) >= 2.0**-14
        rel = np.abs(deq - matrix)[normal] / np.abs(matrix)[normal]
        assert rel.size == 0 or rel.max() <= 2.0**-11
        assert np.all(np.abs(deq - matrix)[~normal] <= 2.0**-24)

    def test_precision_policy_parsing_and_bytes(self):
        assert Precision.parse("fp64") == Precision()
        assert not Precision().is_quantized
        assert Precision.parse(Precision(weights="int8")).tag == "int8"
        assert [Precision.parse(p).storage_bytes for p in PRECISIONS] == [8, 2, 1]
        assert Precision.parse("int8").scale_bytes_per_row == 8
        assert Precision.parse("fp16").scale_bytes_per_row == 0
        with pytest.raises(ConfigurationError):
            Precision.parse("fp32")
        with pytest.raises(ConfigurationError):
            quantize_matrix(np.zeros((2, 2)), Precision())

    def test_payload_bytes_reflect_storage_ratio(self):
        matrix = np.random.default_rng(0).normal(size=(16, 16))
        int8 = quantize_matrix(matrix, Precision.parse("int8"))
        fp16 = quantize_matrix(matrix, Precision.parse("fp16"))
        assert int8.payload_bytes == 16 * 16 + 16 * 8  # codes + fp64 scales
        assert fp16.payload_bytes == 16 * 16 * 2
        assert isinstance(int8, QuantizedMatrix)

    def test_unknown_cell_type_rejected(self):
        with pytest.raises(ConfigurationError):
            quantize_cell_weights(object(), Precision.parse("int8"))


class TestExecutorPolicy:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_fp64_policy_is_bit_identical_to_reference(self, mode):
        network, tokens = build_case()
        config = ExecutionConfig(mode=mode, **MODE_CONFIGS[mode])
        assert config.precision == Precision()
        executor = LSTMExecutor(network, config)
        out = executor.run_batch(tokens)
        ref = ReferenceExecutor(network, config).run_batch(tokens)
        assert_meets_grade(out, ref, executor.exact)

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("tag", ["fp16", "int8"])
    def test_quantized_predictions_within_tolerance(self, mode, tag):
        # A bigger batch than the other cases: agreement is a per-sequence
        # fraction, so 5 sequences would quantize the metric itself to
        # 20 % steps.
        network, tokens = build_case(batch=20)
        config = ExecutionConfig(mode=mode, **MODE_CONFIGS[mode])
        base = LSTMExecutor(network, config).run_batch(tokens)
        quant = LSTMExecutor(
            network, dataclasses.replace(config, precision=tag)
        ).run_batch(tokens)
        agreement = float(np.mean(quant.predictions() == base.predictions()))
        assert agreement >= MIN_AGREEMENT[tag]
        # Quantization must actually change the weights (not a no-op).
        assert not np.array_equal(quant.logits, base.logits) or tag == "fp16"

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_compiled_and_interpreted_agree_under_quantization(self, mode):
        """The int8 executor's programs equal the reference walk (the
        interpreted specification) run on the dequantized weights."""
        network, tokens = build_case()
        config = ExecutionConfig(mode=mode, precision="int8", **MODE_CONFIGS[mode])
        executor = LSTMExecutor(network, config)
        compiled = executor.run_batch(tokens)
        # The executor quantizes what the mode executes — the pruned
        # weights under ZERO_PRUNE — so the reference gets those weights
        # dequantized and, being pruned already, the baseline flow.
        weights = [layer.weights for layer in network.layers]
        ref_mode = mode
        if mode is ExecutionMode.ZERO_PRUNE:
            weights = [prune_cell_weights(w, ZERO_PRUNE_FRACTION)[0] for w in weights]
            ref_mode = ExecutionMode.BASELINE
        cells = [quantize_cell_weights(w, config.precision) for w in weights]
        reference = ReferenceExecutor(
            dequantized_network(network, cells),
            dataclasses.replace(config, mode=ref_mode, precision="fp64"),
        ).run_batch(tokens)
        assert_meets_grade(compiled, reference, executor.exact)

    def test_quantized_cells_param_requires_quantized_precision(self):
        network, _ = build_case()
        int8 = Precision.parse("int8")
        cells = [quantize_cell_weights(layer.weights, int8) for layer in network.layers]
        with pytest.raises(ConfigurationError):
            LSTMExecutor(
                network,
                ExecutionConfig(mode=ExecutionMode.BASELINE),
                quantized_cells=cells,
            )


class TestQuantizedFleet:
    def test_int8_combined_worker_matches_in_process_executor(self):
        network, tokens = build_case()
        config = ExecutionConfig(
            mode=ExecutionMode.COMBINED,
            precision="int8",
            **MODE_CONFIGS[ExecutionMode.COMBINED],
        )
        expected = LSTMExecutor(network, config).run_batch(tokens)
        with FleetServer(network, config, workers=1, max_batch=len(tokens)) as fleet:
            tickets = [fleet.submit(f"r{i}", row, now=0.0) for i, row in enumerate(tokens)]
            fleet.drain(now=0.0)
        logits = np.stack([ticket.result.logits for ticket in tickets])
        assert np.array_equal(logits, expected.logits)
        assert multiprocessing.active_children() == []

    def test_fleet_executor_runs_direct_quantization(self):
        network, _ = build_case()
        int8 = Precision.parse("int8")
        direct = [quantize_cell_weights(layer.weights, int8) for layer in network.layers]
        config = ExecutionConfig(mode=ExecutionMode.BASELINE, precision=int8)
        with FleetServer(network, config) as fleet:
            served = fleet._executor.quantized_cells
        for a, b in zip(direct, served):
            for gate in ("f", "i", "c", "o"):
                for store_a, store_b in ((a.w, b.w), (a.u, b.u)):
                    assert np.array_equal(store_a[gate].data, store_b[gate].data)
                    assert np.array_equal(store_a[gate].scales, store_b[gate].scales)

    def test_fleet_executor_holds_one_reconstruction_per_layer(self):
        """Beyond the caller's network, a quantized fleet's executor holds
        each layer's codes and scales plus one float64 reconstruction of its
        ``W`` and ``U`` (biases are never quantized, so ``b`` is shared)."""
        network, tokens = build_case()
        config = ExecutionConfig(mode=ExecutionMode.BASELINE, precision="int8")
        expected = LSTMExecutor(network, config).run_batch(tokens).logits
        with FleetServer(network, config) as fleet:
            executor = fleet._executor
            cells = executor.quantized_cells
            assert executor.network is network
            held = []
            for layer, cell in zip(network.layers, cells):
                assert cell.dequantized.b is layer.weights.b
                held += [cell.dequantized.w, cell.dequantized.u]
            held += [
                array
                for cell in cells
                for matrix in (*cell.w.values(), *cell.u.values())
                for array in (matrix.data, matrix.scales)
            ]
            assert [id(a) for a in executor.owned_arrays()] == [id(a) for a in held]
            assert np.array_equal(executor.run_batch(tokens).logits, expected)


class TestFig14Workload:
    def test_mr_accuracy_delta_within_tolerance(self):
        """End-task accuracy delta on a Table II app (fig. 14/18 workloads).

        Compares quantized predictions against the fp64 policy *in the
        same mode*, so the delta charges quantization alone, not the
        skipping it rides on.
        """
        app = OptimizedLSTM.from_app("MR", seed=0)
        app.calibrate(num_sequences=4)
        tokens = app.sample_tokens(16, seed=99)
        for mode, kwargs in (
            (ExecutionMode.BASELINE, {}),
            (ExecutionMode.COMBINED, {"threshold_index": 2}),
        ):
            exact = app.run(tokens, mode=mode, **kwargs)
            for tag, tolerance in MIN_AGREEMENT.items():
                quant = app.run(tokens, mode=mode, precision=tag, **kwargs)
                assert quant.agreement_with(exact) >= tolerance, (mode, tag)


class TestPricedTraffic:
    def test_int8_moves_fewer_weight_bytes_than_fp64(self):
        """At one threshold set, int8 storage moves fewer weight bytes
        than fp64 in the run's priced record: the kernel trace charges
        the active precision's bytes, compounded with skipping."""
        network, tokens = build_case(hidden=16, seq=8, batch=3)
        app = OptimizedLSTM(network)
        app.calibrate(num_sequences=3)
        moved = {}
        for tag in ("fp64", "int8"):
            recorder = Recorder()
            app.run(
                tokens,
                mode=ExecutionMode.COMBINED,
                threshold_index=2,
                precision=tag,
                recorder=recorder,
            )
            moved[tag] = recorder.last().weight_bytes_totals()["moved"]
        assert 0.0 < moved["int8"] < moved["fp64"]
