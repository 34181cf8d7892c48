"""Tests for the LSTM cell math (Eq. 1-5) and the DRS skip semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.nn.activations import sigmoid, tanh
from repro.nn.initializers import WeightInitializer
from repro.nn.lstm_cell import (
    CellState,
    GATE_ORDER,
    LSTMCellWeights,
    input_projections,
    lstm_cell_step,
)

H, E = 8, 6


def small_weights(seed=0) -> LSTMCellWeights:
    return LSTMCellWeights.initialize(H, E, WeightInitializer(seed))


def step_inputs(weights, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=E)
    proj = {g: x @ weights.gate_w(g).T for g in GATE_ORDER}
    state = CellState(h=rng.normal(size=H) * 0.3, c=rng.normal(size=H))
    return proj, state


class TestWeights:
    def test_united_shapes(self, tiny_weights):
        assert tiny_weights.united_u().shape == (4 * tiny_weights.hidden_size,) * 1 + (
            tiny_weights.hidden_size,
        )
        assert tiny_weights.united_w().shape == (
            4 * tiny_weights.hidden_size,
            tiny_weights.input_size,
        )
        assert tiny_weights.united_b().shape == (4 * tiny_weights.hidden_size,)

    def test_united_order_is_f_i_c_o(self):
        w = small_weights()
        united = w.united_u()
        np.testing.assert_array_equal(united[:H], w.u_f)
        np.testing.assert_array_equal(united[H : 2 * H], w.u_i)
        np.testing.assert_array_equal(united[2 * H : 3 * H], w.u_c)
        np.testing.assert_array_equal(united[3 * H :], w.u_o)

    def test_shape_validation(self):
        w = small_weights()
        with pytest.raises(ShapeError):
            LSTMCellWeights(w.w, w.u[:-1], w.b)  # one U row short

    def test_gate_accessors(self):
        w = small_weights()
        for gate in GATE_ORDER:
            assert w.gate_u(gate).shape == (H, H)
            assert w.gate_w(gate).shape == (H, E)
            assert w.gate_b(gate).shape == (H,)


class TestCellStep:
    def test_matches_manual_equations(self):
        w = small_weights()
        proj, state = step_inputs(w)
        new, gates = lstm_cell_step(w, proj, state)

        f = sigmoid(proj["f"] + w.u_f @ state.h + w.b_f)
        i = sigmoid(proj["i"] + w.u_i @ state.h + w.b_i)
        g = tanh(proj["c"] + w.u_c @ state.h + w.b_c)
        o = sigmoid(proj["o"] + w.u_o @ state.h + w.b_o)
        c = f * state.c + i * g
        h = o * tanh(c)
        np.testing.assert_allclose(new.c, c)
        np.testing.assert_allclose(new.h, h)
        np.testing.assert_allclose(gates.f, f)
        np.testing.assert_allclose(gates.o, o)

    def test_hidden_output_is_bounded(self):
        w = small_weights()
        proj, state = step_inputs(w)
        new, _ = lstm_cell_step(w, proj, state)
        assert np.all(np.abs(new.h) <= 1.0)

    def test_skip_rows_zero_state_and_output(self):
        w = small_weights()
        proj, state = step_inputs(w)
        skip = np.zeros(H, dtype=bool)
        skip[[1, 4]] = True
        new, _ = lstm_cell_step(w, proj, state, skip_rows=skip)
        assert new.c[1] == 0.0 and new.c[4] == 0.0
        assert new.h[1] == 0.0 and new.h[4] == 0.0

    def test_skip_rows_do_not_change_kept_rows(self):
        w = small_weights()
        proj, state = step_inputs(w)
        skip = np.zeros(H, dtype=bool)
        skip[2] = True
        full, _ = lstm_cell_step(w, proj, state)
        skipped, _ = lstm_cell_step(w, proj, state, skip_rows=skip)
        keep = ~skip
        np.testing.assert_allclose(skipped.c[keep], full.c[keep])
        np.testing.assert_allclose(skipped.h[keep], full.h[keep])

    def test_skip_all_rows(self):
        w = small_weights()
        proj, state = step_inputs(w)
        new, _ = lstm_cell_step(w, proj, state, skip_rows=np.ones(H, dtype=bool))
        np.testing.assert_array_equal(new.c, 0.0)
        np.testing.assert_array_equal(new.h, 0.0)

    def test_output_gate_always_computed(self):
        """o_t must be exact even under skipping — it selects the rows."""
        w = small_weights()
        proj, state = step_inputs(w)
        _, gates_full = lstm_cell_step(w, proj, state)
        _, gates_skip = lstm_cell_step(
            w, proj, state, skip_rows=np.ones(H, dtype=bool)
        )
        np.testing.assert_allclose(gates_skip.o, gates_full.o)

    def test_skip_mask_shape_validated(self):
        w = small_weights()
        proj, state = step_inputs(w)
        with pytest.raises(ShapeError):
            lstm_cell_step(w, proj, state, skip_rows=np.zeros(H + 1, dtype=bool))

    def test_masked_full_computation_equals_sliced_skip(self):
        """Computing everything then zeroing equals true row skipping.

        This equivalence is what lets the batched executor use full
        matmuls + masks while remaining numerically identical to the
        hardware row skip.
        """
        w = small_weights()
        proj, state = step_inputs(w)
        skip = np.zeros(H, dtype=bool)
        skip[[0, 3, 7]] = True
        sliced, _ = lstm_cell_step(w, proj, state, skip_rows=skip)
        full, _ = lstm_cell_step(w, proj, state)
        masked_c = np.where(skip, 0.0, full.c)
        o = sigmoid(proj["o"] + w.u_o @ state.h + w.b_o)
        masked_h = o * tanh(masked_c)
        np.testing.assert_allclose(sliced.c, masked_c)
        np.testing.assert_allclose(sliced.h, masked_h)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_state_stays_finite(self, seed):
        w = small_weights(seed % 100)
        proj, state = step_inputs(w, seed)
        new, _ = lstm_cell_step(w, proj, state)
        assert np.all(np.isfinite(new.c)) and np.all(np.isfinite(new.h))


class TestBatchedStep:
    def test_batch_matches_per_sequence(self):
        w = small_weights()
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(3, E))
        proj_batch = {g: xs @ w.gate_w(g).T for g in GATE_ORDER}
        h0 = rng.normal(size=(3, H)) * 0.2
        c0 = rng.normal(size=(3, H))
        batch_state, _ = lstm_cell_step(w, proj_batch, CellState(h=h0, c=c0))
        for b in range(3):
            single, _ = lstm_cell_step(
                w,
                {g: proj_batch[g][b] for g in GATE_ORDER},
                CellState(h=h0[b], c=c0[b]),
            )
            np.testing.assert_allclose(batch_state.h[b], single.h)
            np.testing.assert_allclose(batch_state.c[b], single.c)


class TestReferenceSequence:
    def test_input_projections_match_loop(self):
        w = small_weights()
        xs = np.random.default_rng(2).normal(size=(4, E))
        proj = input_projections(w, xs)
        for g in GATE_ORDER:
            for t in range(4):
                np.testing.assert_allclose(proj[g][t], w.gate_w(g) @ xs[t])
