"""Tests for the agreement metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.workloads.metrics import (
    agreement_accuracy,
    prediction_margins,
)


class TestMargins:
    def test_binary(self):
        logits = np.array([[2.0, 0.5], [0.1, 0.2]])
        np.testing.assert_allclose(prediction_margins(logits), [1.5, 0.1])

    def test_multiclass(self):
        logits = np.array([3.0, 7.0, 5.0])
        assert prediction_margins(logits) == pytest.approx(2.0)

    def test_batched_tokens(self):
        logits = np.zeros((2, 4, 5))
        logits[..., 0] = 1.0
        assert prediction_margins(logits).shape == (2, 4)

    def test_needs_two_classes(self):
        with pytest.raises(ConfigurationError):
            prediction_margins(np.ones((3, 1)))

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=8))
    def test_nonnegative(self, row):
        assert prediction_margins(np.array(row)) >= 0


class TestAgreement:
    def test_perfect(self):
        t = np.array([1, 2, 3])
        assert agreement_accuracy(t, t) == 1.0

    def test_partial(self):
        assert agreement_accuracy(np.array([1, 2]), np.array([1, 3])) == 0.5

    def test_masked(self):
        t = np.array([1, 2, 3, 4])
        p = np.array([1, 0, 3, 0])
        mask = np.array([True, False, True, False])
        assert agreement_accuracy(t, p, mask) == 1.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ConfigurationError):
            agreement_accuracy(np.array([1]), np.array([1]), np.array([False]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            agreement_accuracy(np.array([1, 2]), np.array([1]))
