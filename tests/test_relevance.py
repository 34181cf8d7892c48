"""Tests for Algorithm 2 (relevance value acquisition)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.nn.activations import SENSITIVE_WIDTH
from repro.nn.initializers import WeightInitializer
from repro.nn.lstm_cell import GATE_ORDER, LSTMCellWeights
from repro.core.relevance import (
    exact_relevance_values,
    recurrent_row_ranges,
    relevance_values,
)

H, E, T = 10, 8, 6


def max_relevance(hidden_size: int) -> float:
    """Upper bound on ``S`` for a layer of ``hidden_size`` units.

    Per element: ``S_o <= 4`` and ``S_f + S_i * S_c <= 4 + 16``, so the sum
    is bounded by ``80 * H``.
    """
    return 80.0 * hidden_size


def weights_and_proj(seed=0, scale=1.0):
    w = LSTMCellWeights.initialize(H, E, WeightInitializer(seed))
    xs = np.random.default_rng(seed + 1).normal(size=(T, E)) * scale
    proj = {g: xs @ w.gate_w(g).T for g in GATE_ORDER}
    return w, proj


class TestRowRanges:
    def test_matches_l1_norm(self):
        w, _ = weights_and_proj()
        ranges = recurrent_row_ranges(w)
        for g in GATE_ORDER:
            np.testing.assert_allclose(ranges[g], np.abs(w.gate_u(g)).sum(axis=1))

    def test_nonnegative(self):
        w, _ = weights_and_proj()
        for arr in recurrent_row_ranges(w).values():
            assert np.all(arr >= 0)


def algorithm2_line_for_line(weights, x_proj, ranges):
    """Algorithm 2 as the paper writes it, the expression
    :func:`relevance_values` replaced, kept as its oracle: ``term_a`` and the
    upper clip at 4 included."""
    center_f = x_proj["f"] + weights.b_f
    per_gate = {
        "f": np.minimum(SENSITIVE_WIDTH, np.maximum(center_f + ranges["f"] + 2.0, 0.0))
    }
    for gate in ("i", "c", "o"):
        center = np.abs(x_proj[gate] + weights.gate_b(gate))
        term_a = 2.0 + np.minimum(2.0, center)
        term_b = np.minimum(2.0, 2.0 + ranges[gate] - np.maximum(2.0, center))
        per_gate[gate] = np.clip(np.minimum(term_a, term_b), 0.0, SENSITIVE_WIDTH)
    s_elem = per_gate["o"] * (per_gate["f"] + per_gate["i"] * per_gate["c"])
    return s_elem.sum(axis=-1)


class TestRelevanceOracle:
    """The in-place 6-pass form is byte-identical to the line-for-line one."""

    @given(
        seed=st.integers(0, 2**16),
        lead=st.sampled_from([(), (1,), (3,)]),
        seq=st.integers(1, 12),
        hidden=st.integers(1, 9),
        log_scale=st.floats(-3.0, 3.0),
        nan_share=st.sampled_from([0.0, 0.05, 0.3]),
        zero_rows=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_line_for_line(
        self, seed, lead, seq, hidden, log_scale, nan_share, zero_rows
    ):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        w = LSTMCellWeights.zeros(hidden, 3)
        w.u[:] = rng.normal(scale=scale / hidden, size=w.u.shape)
        w.b[:] = rng.normal(scale=scale, size=w.b.shape)
        if zero_rows:  # rows with a zero range D
            w.u[rng.random(4 * hidden) < 0.5] = 0.0
        # The projections are column views of one (..., T, 4H) block, the
        # way the combined executor hands them over.
        block = rng.normal(scale=scale, size=(*lead, seq, 4 * hidden))
        block[rng.random(block.shape) < nan_share] = np.nan
        proj = {g: block[..., k * hidden : (k + 1) * hidden] for k, g in enumerate(GATE_ORDER)}
        ranges = recurrent_row_ranges(w)
        mine = relevance_values(w, proj, row_ranges=ranges)
        theirs = algorithm2_line_for_line(w, proj, ranges)
        assert mine.shape == theirs.shape == (*lead, seq)
        assert mine.tobytes() == theirs.tobytes()


class TestRelevanceValues:
    def test_shape(self):
        w, proj = weights_and_proj()
        assert relevance_values(w, proj).shape == (T,)

    def test_nonnegative_and_bounded(self):
        w, proj = weights_and_proj()
        s = relevance_values(w, proj)
        assert np.all(s >= 0)
        assert np.all(s <= max_relevance(H))

    def test_zero_recurrent_weights_and_saturated_inputs(self):
        """With U == 0 and deeply saturated inputs the link is irrelevant."""
        w, proj = weights_and_proj()
        for g in GATE_ORDER:
            setattr(w, f"u_{g}", np.zeros((H, H)))
            setattr(w, f"b_{g}", np.zeros(H))
        # All pre-activations far below the sensitive area.
        sat = {g: np.full((T, H), -50.0) for g in GATE_ORDER}
        s = relevance_values(w, sat, row_ranges=recurrent_row_ranges(w))
        np.testing.assert_allclose(s, 0.0)

    def test_centered_inputs_are_maximally_relevant(self):
        """Pre-activations centered in the sensitive area give large S."""
        w, _ = weights_and_proj()
        centered = {g: np.zeros((T, H)) - w.gate_b(g) for g in GATE_ORDER}
        s = relevance_values(w, centered)
        # Centered pre-activations keep every gate inside the sensitive
        # area; with moderate row ranges the per-element contribution is
        # a substantial share of the 80-per-element bound.
        assert np.all(s > 0.15 * max_relevance(H))

    def test_saturation_monotonicity(self):
        """Scaling input projections up (more saturation) cannot raise S much."""
        w, proj_small = weights_and_proj(scale=0.5)
        _, proj_large = weights_and_proj(scale=8.0)
        s_small = relevance_values(w, proj_small).mean()
        s_large = relevance_values(w, proj_large).mean()
        assert s_large < s_small

    def test_precomputed_ranges_equivalent(self):
        w, proj = weights_and_proj()
        np.testing.assert_allclose(
            relevance_values(w, proj),
            relevance_values(w, proj, row_ranges=recurrent_row_ranges(w)),
        )

    def test_missing_gate_rejected(self):
        w, proj = weights_and_proj()
        del proj["o"]
        with pytest.raises(ShapeError):
            relevance_values(w, proj)

    def test_wrong_width_rejected(self):
        w, proj = weights_and_proj()
        proj["f"] = proj["f"][:, :-1]
        with pytest.raises(ShapeError):
            relevance_values(w, proj)


class TestExactVariant:
    def test_shape_and_bounds(self):
        w, proj = weights_and_proj()
        s = exact_relevance_values(w, proj)
        assert s.shape == (T,)
        assert np.all(s >= 0)

    def test_exact_overlap_per_gate_bounded_by_width(self):
        w, proj = weights_and_proj()
        s = exact_relevance_values(w, proj)
        # S_elem <= width * (width + width^2), summed over H.
        bound = H * SENSITIVE_WIDTH * (SENSITIVE_WIDTH + SENSITIVE_WIDTH**2)
        assert np.all(s <= bound)

    def test_agrees_on_total_irrelevance(self):
        w, _ = weights_and_proj()
        for g in GATE_ORDER:
            setattr(w, f"u_{g}", np.zeros((H, H)))
            setattr(w, f"b_{g}", np.zeros(H))
        sat = {g: np.full((T, H), 50.0) for g in GATE_ORDER}
        assert np.allclose(exact_relevance_values(w, sat), 0.0)


class TestBoundaryTokens:
    def test_boundary_links_are_weakest(self, calibrated_network, tiny_app_config):
        """The zoo's boundary tokens must produce the lowest relevance."""
        net = calibrated_network
        boundary = net.boundary_token_ids
        if boundary.size == 0:
            pytest.skip("profile has no boundary tokens")
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, net.vocab_size, size=net.config.seq_length)
        tokens[5] = boundary[0]
        xs = net.embed(tokens)
        w = net.layers[0].weights
        proj = {g: xs @ w.gate_w(g).T for g in GATE_ORDER}
        s = relevance_values(w, proj)
        assert s[5] == np.min(s)
