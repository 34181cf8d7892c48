"""The sharing contract: a layer's weights exist once.

:class:`~repro.nn.lstm_cell.LSTMCellWeights` owns three united blocks;
everything else — per-gate names, executors, compiled programs of both
backends, the fleet's executor that its forked workers inherit — computes
on views of them, and nothing stages a copy. These tests pin that with
``np.shares_memory`` and ``tracemalloc`` (numpy reports its array data to
``tracemalloc``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config import APP_NAMES, LSTMConfig, get_app
from repro.core import cgen
from repro.core.backends import make_combined_program, make_stepwise_program
from repro.core.context_prediction import PredictedLink
from repro.core.executor import (
    ExecutionConfig,
    ExecutionMode,
    LSTMExecutor,
    _UnitedWeights,
)
from repro.core.plan import (
    fingerprint_network,
    fingerprint_weights,
    invalidate_weight_fingerprints,
)
from repro.nn.backprop import backward, training_forward
from repro.nn.calibrate import SGD
from repro.nn.lstm_cell import GATE_ORDER, LSTMCellWeights
from repro.nn.model_zoo import build_calibrated_network
from repro.nn.network import LSTMNetwork
from repro.nn.pruning import prune_cell_weights
from repro.runtime import FleetServer

needs_cc = pytest.mark.skipif(not cgen.compiler_available(), reason="no C compiler")
BACKENDS = ["numpy", pytest.param("cgen", marks=needs_cc)]

#: ``fingerprint_network`` of every zoo application at seed 0, as the
#: per-gate storage produced them (the commit before the united blocks).
ZOO_FINGERPRINTS = {
    "IMDB": "3fd50c68651a54f4b37a3905bc0a3464",
    "MR": "f14e378264c547ede56c92927c7f7369",
    "BABI": "a3c0ac0bc4922ee7da6d5d006136c08b",
    "SNLI": "fa20666faa8674763c32b26366ed20a9",
    "PTB": "c315be68f3eee81e5b0cd2c0f2818a8f",
    "MT": "bd09deaa830779cc264d489da068bd08",
}


def make_network(hidden: int = 16, layers: int = 2, seed: int = 3) -> LSTMNetwork:
    config = LSTMConfig(hidden_size=hidden, num_layers=layers, seq_length=8, input_size=hidden)
    return LSTMNetwork(config, vocab_size=40, num_classes=3, seed=seed)


def arrays_of(obj) -> list[np.ndarray]:
    """Every ndarray an object holds directly or one container deep."""
    found = []
    for value in vars(obj).values():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, np.ndarray):
                found.append(item)
    return found


def traced(build):
    """``(result, bytes still held, peak bytes)`` of one call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        held, peak = tracemalloc.get_traced_memory()
        return result, held - before, peak - before
    finally:
        tracemalloc.stop()


class TestBlocks:
    def test_every_gate_field_is_a_slice_of_its_block(self, tiny_weights):
        w = tiny_weights
        hidden = w.hidden_size
        for k, gate in enumerate(GATE_ORDER):
            rows = slice(k * hidden, (k + 1) * hidden)
            for kind, block in (("w", w.w), ("u", w.u), ("b", w.b)):
                field = getattr(w, f"{kind}_{gate}")
                assert np.shares_memory(field, block)
                assert field.flags.c_contiguous  # its own row-major layout
                np.testing.assert_array_equal(field, block[rows])
        assert w.united_w() is w.w and w.united_u() is w.u and w.united_b() is w.b

    def test_gate_writes_land_in_the_block(self, tiny_weights):
        w = tiny_weights
        hidden = w.hidden_size
        w.u_c[0, 0] = 123.0  # element write through the view
        assert w.u[2 * hidden, 0] == 123.0
        w.b_o += 1.5  # augmented assignment
        np.testing.assert_array_equal(w.b[3 * hidden :], 1.5)
        w.u_i = np.zeros((hidden, hidden))  # plain assignment copies in
        assert not w.u[hidden : 2 * hidden].any()
        assert np.shares_memory(w.u_i, w.u)

    def test_blocks_must_be_row_major(self, tiny_weights):
        from repro.errors import ShapeError

        w = tiny_weights
        with pytest.raises(ShapeError, match="C-contiguous"):
            LSTMCellWeights(w.w, np.asfortranarray(w.u), w.b)

    def test_pruning_shares_w_and_b_but_never_writes_through_u(self, tiny_weights):
        original = tiny_weights.u.copy()
        pruned, _ = prune_cell_weights(tiny_weights, 0.5)
        assert pruned.w is tiny_weights.w and pruned.b is tiny_weights.b
        assert not np.shares_memory(pruned.u, tiny_weights.u)
        assert (pruned.u == 0.0).sum() > (original == 0.0).sum()
        pruned.u[...] = -1.0
        np.testing.assert_array_equal(tiny_weights.u, original)
        # Nothing to prune is still a private U: the old united_u() copy
        # semantics, kept where a caller relied on them.
        untouched, _ = prune_cell_weights(tiny_weights, 0.0)
        assert not np.shares_memory(untouched.u, tiny_weights.u)
        np.testing.assert_array_equal(untouched.u, original)

    def test_zero_prune_executor_leaves_the_model_alone(self):
        network = make_network()
        before = fingerprint_network(network)
        executor = LSTMExecutor(network, ExecutionConfig(mode=ExecutionMode.ZERO_PRUNE))
        executor.run_batch(np.zeros((2, 8), dtype=np.int64))
        invalidate_weight_fingerprints(network)
        assert fingerprint_network(network) == before
        for layer, united in zip(network.layers, executor._united):
            assert united.w is layer.weights.w and united.b is layer.weights.b
            assert not np.shares_memory(united.u, layer.weights.u)


class TestProgramsAreWeightFree:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_operands_are_views_of_the_network_blocks(self, backend):
        network = make_network()
        weights = network.layers[0].weights
        blocks = (weights.w, weights.u, weights.b)
        united = _UnitedWeights.from_weights(weights)
        assert all(mine is block for mine, block in zip((united.w, united.u, united.b), blocks))
        link = PredictedLink.zeros(weights.hidden_size)
        # Batch 3: no workspace buffer has a block's shape (at batch 2 the
        # DRS scratch is ``(4H,)`` like ``b``, and ``np.empty`` can hand back
        # the stale bytes of a freed copy made while the network was built).
        stepwise = make_stepwise_program(backend, united, link, 3, 4, drs_alpha=0.3)
        combined = make_combined_program(united, link, 3, 4, 3, alpha_intra=0.3)
        for program in (stepwise, combined):
            held = arrays_of(program)
            shared = [a for a in held if any(np.shares_memory(a, b) for b in blocks)]
            # u and b for both kinds, w for the stepwise programs (numpy
            # projects gate by gate, cgen inside its native call).
            assert len(shared) >= (3 if program is stepwise else 2)
            for array in held:
                if any(array is a for a in shared):
                    continue
                # Whatever else it holds is workspace: nothing weight-sized
                # with weight contents.
                assert not any(
                    array.shape == b.shape and np.array_equal(array, b) for b in blocks
                )

    @needs_cc
    def test_cgen_programs_stage_no_weight_copy(self):
        """Every operand a cgen program holds, at every shape, is memory of
        the network's blocks, and an fp64 cgen executor owns no array."""
        network = make_network()
        weights = network.layers[0].weights
        blocks = (weights.w, weights.u, weights.b)
        united = _UnitedWeights.from_weights(weights)
        link = PredictedLink.zeros(16)
        for batch, steps in ((1, 1), (2, 4), (4, 2)):
            program = make_stepwise_program("cgen", united, link, batch, steps, drs_alpha=0.3)
            operands = arrays_of(program)
            assert len(operands) == 3
            assert all(any(np.shares_memory(a, b) for b in blocks) for a in operands)
        for mode in (ExecutionMode.BASELINE, ExecutionMode.INTRA):
            config = ExecutionConfig(mode=mode, alpha_intra=0.2, backend="cgen")
            executor = LSTMExecutor(network, config)
            executor.run_batch(np.zeros((2, 8), dtype=np.int64))
            assert executor.owned_arrays() == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_executor_construction_copies_no_weights(self, backend):
        hidden, layers = 256, 3
        network = make_network(hidden=hidden, layers=layers)
        weight_bytes = sum(
            layer.weights.w.nbytes + layer.weights.u.nbytes for layer in network.layers
        )
        config = ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=0.2, backend=backend)
        executor, held, _ = traced(lambda: LSTMExecutor(network, config))
        assert held < 64 * 1024, f"executor holds {held} bytes of {weight_bytes}"
        for layer, united in zip(network.layers, executor._united):
            weights = layer.weights
            assert united.w is weights.w and united.u is weights.u and united.b is weights.b

    @pytest.mark.parametrize("drs_alpha", [0.0, 0.3])
    def test_stepwise_compile_allocates_its_workspace_only(self, drs_alpha):
        hidden, batch, steps = 256, 8, 4
        network = make_network(hidden=hidden, layers=1)
        united = _UnitedWeights.from_weights(network.layers[0].weights)
        link = PredictedLink.zeros(hidden)
        bh, bth = batch * hidden, batch * steps * hidden
        # proj; h, c, hu, pre, two sigmoid scratches, t1; the sigmoid mask.
        workspace = 8 * (4 * bth + 17 * bh) + 3 * bh
        if drs_alpha > 0.0:
            # step masks; compacted f/i, g, c scratch; dropped / alive rows.
            workspace += bth + 8 * 4 * bh + 2 * hidden
        overhead = 16 * 1024  # array headers and the per-step view lists
        _, held, peak = traced(
            lambda: make_stepwise_program(
                "numpy", united, link, batch, steps, drs_alpha=drs_alpha
            )
        )
        assert workspace <= held <= workspace + overhead
        assert peak <= workspace + overhead  # no transient weight staging either
        assert held < united.u.nbytes  # a cached program is smaller than U alone

    @needs_cc
    def test_cgen_compile_allocates_its_workspace_only(self):
        hidden, batch, steps = 256, 8, 4
        network = make_network(hidden=hidden, layers=1)
        united = _UnitedWeights.from_weights(network.layers[0].weights)
        link = PredictedLink.zeros(hidden)
        make_stepwise_program("cgen", united, link, 1, 1)  # loads the library
        bh, bth = batch * hidden, batch * steps * hidden
        # x, proj; h, c, pre; the step masks.
        workspace = 8 * (5 * bth + 6 * bh) + bth
        _, held, peak = traced(
            lambda: make_stepwise_program("cgen", united, link, batch, steps, drs_alpha=0.3)
        )
        assert workspace <= held <= peak <= workspace + 16 * 1024


class TestFleet:
    def test_fleet_executor_computes_on_the_callers_arrays(self):
        """The fleet's one executor — the object its forked workers inherit —
        runs on the caller's blocks, through every compiled program, and owns
        no weight array at fp64."""
        network = make_network()
        tokens = np.random.default_rng(0).integers(0, 40, size=(3, 8))
        config = ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=0.2)
        with FleetServer(network, config, workers=1, max_batch=3) as fleet:
            tickets = [fleet.submit(f"r{i}", row, now=0.0) for i, row in enumerate(tokens)]
            fleet.drain(now=0.0)
            executor = fleet._executor
            executor.run_batch(tokens)  # compile the parent's programs too
        assert executor.network is network
        assert executor.owned_arrays() == []
        for layer, united in zip(network.layers, executor._united):
            assert united.w is layer.weights.w
            assert united.u is layer.weights.u
            assert united.b is layer.weights.b
        blocks = [layer.weights.u for layer in network.layers]
        for program in executor.program_cache._store.values():
            for u_op in (program._u_slabs, program._u_tail):
                assert u_op.size == 0 or any(np.shares_memory(u_op, u) for u in blocks)
        expected = LSTMExecutor(network, config).run_batch(tokens)
        logits = np.stack([ticket.result.logits for ticket in tickets])
        assert np.array_equal(logits, expected.logits)


class TestTrainingSeesTheBlocks:
    def test_optimizer_step_is_visible_and_refingerprints(self):
        """PR 9's stale-fingerprint bug stays fixed on united storage: the
        canonical parameter list is views of the blocks, so an in-place
        step moves ``united_u()`` and, once the memo is dropped, the
        network fingerprint."""
        network = make_network()
        tokens = np.random.default_rng(1).integers(0, 40, size=(2, 8))
        labels = np.array([0, 2])
        params = network.parameters()
        for layer in network.layers:
            assert any(np.shares_memory(p, layer.weights.united_u()) for p in params)
        before_fp = fingerprint_network(network)
        before_layer_fp = fingerprint_weights(network.layers[0].weights)
        before_u = network.layers[0].weights.united_u().copy()

        tape = training_forward(network, tokens)
        _, grads = backward(tape, labels)
        for grad_layer in grads.layers:  # the gradient holder is block-wise too
            assert all(np.shares_memory(grad_layer.gate_u(g), grad_layer.u) for g in GATE_ORDER)
        SGD(lr=0.5).step(params, grads.arrays())

        after_u = network.layers[0].weights.united_u()
        assert not np.array_equal(after_u, before_u)
        assert np.array_equal(after_u[:16], network.layers[0].weights.u_f)
        # The per-layer memo is stale until dropped ...
        assert fingerprint_weights(network.layers[0].weights) == before_layer_fp
        invalidate_weight_fingerprints(network)
        assert fingerprint_weights(network.layers[0].weights) != before_layer_fp
        assert fingerprint_network(network) != before_fp


class TestZooBytes:
    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_seed0_fingerprint_is_pinned(self, app_name):
        """Same rng draw order, same bytes, same per-gate hash order as the
        twelve-array storage."""
        network = build_calibrated_network(get_app(app_name), seed=0)
        assert fingerprint_network(network) == ZOO_FINGERPRINTS[app_name]
        for layer in network.layers:
            assert layer.weights.w.flags.c_contiguous and layer.weights.u.flags.c_contiguous
