"""Tests for the activation functions and the sensitive-area algebra."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nn.activations import (
    SENSITIVE_HI,
    SENSITIVE_LO,
    SENSITIVE_WIDTH,
    hard_sigmoid,
    sensitive_overlap,
    sigmoid,
    tanh,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array(0.0)) == pytest.approx(0.5)

    def test_saturation(self):
        assert sigmoid(np.array(40.0)) == pytest.approx(1.0)
        assert sigmoid(np.array(-40.0)) == pytest.approx(0.0, abs=1e-12)

    def test_extreme_inputs_are_stable(self):
        out = sigmoid(np.array([-1e6, 1e6]))
        assert np.all(np.isfinite(out))

    def test_symmetry(self):
        xs = np.linspace(-8, 8, 33)
        np.testing.assert_allclose(sigmoid(xs) + sigmoid(-xs), 1.0, atol=1e-12)

    @given(finite_floats)
    def test_range(self, x):
        val = float(sigmoid(np.array(x)))
        assert 0.0 <= val <= 1.0

    @given(st.lists(finite_floats, min_size=2, max_size=16))
    def test_monotone(self, xs):
        xs = np.sort(np.asarray(xs))
        out = sigmoid(xs)
        assert np.all(np.diff(out) >= -1e-12)


class TestHardSigmoid:
    def test_saturates_exactly_at_boundaries(self):
        assert hard_sigmoid(np.array(SENSITIVE_LO)) == pytest.approx(0.0)
        assert hard_sigmoid(np.array(SENSITIVE_HI)) == pytest.approx(1.0)

    def test_linear_inside_sensitive_area(self):
        xs = np.linspace(SENSITIVE_LO, SENSITIVE_HI, 11)
        np.testing.assert_allclose(hard_sigmoid(xs), 0.25 * xs + 0.5)

    @given(finite_floats)
    def test_close_to_sigmoid(self, x):
        # The approximation error of the hard sigmoid is bounded.
        assert abs(float(hard_sigmoid(np.array(x)) - sigmoid(np.array(x)))) < 0.15


class TestTanh:
    def test_odd(self):
        xs = np.linspace(-5, 5, 21)
        np.testing.assert_allclose(tanh(xs), -tanh(-xs))

    @given(finite_floats)
    def test_range(self, x):
        assert -1.0 <= float(tanh(np.array(x))) <= 1.0


class TestSensitiveOverlap:
    def test_full_overlap(self):
        assert sensitive_overlap(np.array(-2.0), np.array(2.0)) == pytest.approx(
            SENSITIVE_WIDTH
        )

    def test_no_overlap_above(self):
        assert sensitive_overlap(np.array(3.0), np.array(9.0)) == pytest.approx(0.0)

    def test_no_overlap_below(self):
        assert sensitive_overlap(np.array(-9.0), np.array(-3.0)) == pytest.approx(0.0)

    def test_partial_overlap(self):
        assert sensitive_overlap(np.array(1.0), np.array(5.0)) == pytest.approx(1.0)

    def test_interval_inside(self):
        assert sensitive_overlap(np.array(-0.5), np.array(0.5)) == pytest.approx(1.0)

    def test_vectorized(self):
        lo = np.array([-3.0, 0.0, 2.5])
        hi = np.array([3.0, 1.0, 4.0])
        np.testing.assert_allclose(sensitive_overlap(lo, hi), [4.0, 1.0, 0.0])

    @given(
        st.floats(min_value=-30, max_value=30),
        st.floats(min_value=0, max_value=60),
    )
    def test_bounded_by_width_and_interval(self, lo, span):
        overlap = float(sensitive_overlap(np.array(lo), np.array(lo + span)))
        assert 0.0 <= overlap <= min(SENSITIVE_WIDTH, span) + 1e-12
