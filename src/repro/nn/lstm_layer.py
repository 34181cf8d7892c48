"""One unrolled LSTM layer and its exact (reference) execution.

A layer owns one :class:`~repro.nn.lstm_cell.LSTMCellWeights` shared by all
unrolled cells (the sharing is exactly what makes the inter-cell weight
re-load problem of Section III-A possible). The reference execution here is
the numerical ground truth against which every optimized execution is scored
for agreement accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.lstm_cell import (
    CellState,
    LSTMCellWeights,
    run_reference_cell_sequence,
)
from repro.nn.initializers import WeightInitializer


class LSTMLayer:
    """An unrolled LSTM layer (a chain of cells sharing one weight set)."""

    def __init__(self, weights: LSTMCellWeights) -> None:
        self.weights = weights

    @property
    def hidden_size(self) -> int:
        """Number of hidden units ``H``."""
        return self.weights.hidden_size

    @property
    def input_size(self) -> int:
        """Width of the per-timestep input vector."""
        return self.weights.input_size

    @classmethod
    def create(
        cls,
        hidden_size: int,
        input_size: int,
        init: WeightInitializer,
        recurrent_scale: float = 1.0,
        forget_bias: float = 1.0,
    ) -> "LSTMLayer":
        """Build a layer with freshly initialized weights."""
        weights = LSTMCellWeights.initialize(
            hidden_size,
            input_size,
            init,
            recurrent_scale=recurrent_scale,
            forget_bias=forget_bias,
        )
        return cls(weights)

    def forward(
        self, xs: np.ndarray, initial: CellState | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact sequential execution over ``xs`` of shape ``(T, E)``.

        Returns ``(hs, cs)``, each of shape ``(T, H)``.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.input_size:
            raise ShapeError(
                f"layer expects (T, {self.input_size}) inputs, got {xs.shape}"
            )
        return run_reference_cell_sequence(self.weights, xs, initial=initial)
