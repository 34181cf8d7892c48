"""One unrolled LSTM layer: the weight set its cells share.

A layer owns one :class:`~repro.nn.lstm_cell.LSTMCellWeights` shared by all
unrolled cells (the sharing is exactly what makes the inter-cell weight
re-load problem of Section III-A possible). A layer holds weights only; it
runs through :mod:`repro.core`, and the numerical ground truth every
optimized execution is scored against is
:class:`~repro.core.reference.ReferenceExecutor`.
"""

from __future__ import annotations

from repro.nn.lstm_cell import LSTMCellWeights
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
