"""Multi-layer LSTM networks with embedding and task heads.

This is the model class the Table II applications instantiate. It supports
the two output conventions the paper's task families need:

* *sequence-final* heads (classification: SC / QA / ET) read the last
  hidden vector of the top layer;
* *per-timestep* heads (LM / MT) read every hidden vector of the top layer.

The network holds weights and the embedding / head readouts; it has no
forward of its own. Every execution runs through :mod:`repro.core` — the
numerical ground truth is :class:`~repro.core.reference.ReferenceExecutor`,
the production path :class:`~repro.core.executor.LSTMExecutor` — which
replaces the layer recurrence while reusing the embedding and head verbatim.
"""

from __future__ import annotations

import numpy as np

from repro.config import LSTMConfig
from repro.errors import ConfigurationError, ShapeError
from repro.nn.initializers import WeightInitializer
from repro.nn.lstm_cell import LSTMCellWeights
from repro.nn.lstm_layer import LSTMLayer


class LSTMNetwork:
    """Embedding -> stacked LSTM layers -> linear head."""

    def __init__(
        self,
        config: LSTMConfig,
        vocab_size: int,
        num_classes: int,
        seed: int = 0,
        per_timestep_head: bool = False,
        head_pool: int = 1,
        recurrent_scale: float = 1.0,
    ) -> None:
        self._set_geometry(config, vocab_size, num_classes, per_timestep_head, head_pool)
        init = WeightInitializer(seed)
        embed_dim = config.effective_input_size
        self.embedding = init.normal(vocab_size, embed_dim, std=0.3)
        self.layers: list[LSTMLayer] = [
            LSTMLayer.create(
                config.hidden_size,
                config.layer_input_size(idx),
                init,
                recurrent_scale=recurrent_scale,
            )
            for idx in range(config.num_layers)
        ]
        self.head_weight = init.xavier_uniform(num_classes, config.hidden_size)
        self.head_bias = init.bias(num_classes)

    @classmethod
    def from_arrays(
        cls,
        config: LSTMConfig,
        embedding: np.ndarray,
        cells: list[LSTMCellWeights],
        head_weight: np.ndarray,
        head_bias: np.ndarray,
        per_timestep_head: bool = False,
        head_pool: int = 1,
    ) -> "LSTMNetwork":
        """A network over the given arrays, held as they are (no copy, no
        initializer runs): how the model zoo assembles its build."""
        if len(cells) != config.num_layers:
            raise ConfigurationError(
                f"need one cell per layer ({config.num_layers}), got {len(cells)}"
            )
        network = cls.__new__(cls)
        network._set_geometry(
            config, embedding.shape[0], head_weight.shape[0], per_timestep_head, head_pool
        )
        network.embedding = embedding
        network.layers = [LSTMLayer(weights) for weights in cells]
        network.head_weight = head_weight
        network.head_bias = head_bias
        return network

    def _set_geometry(
        self,
        config: LSTMConfig,
        vocab_size: int,
        num_classes: int,
        per_timestep_head: bool,
        head_pool: int,
    ) -> None:
        if vocab_size <= 1:
            raise ConfigurationError(f"vocab_size must exceed 1, got {vocab_size}")
        if num_classes <= 1:
            raise ConfigurationError(f"num_classes must exceed 1, got {num_classes}")
        if head_pool < 1 or head_pool > config.seq_length:
            raise ConfigurationError(
                f"head_pool must be in [1, seq_length], got {head_pool}"
            )
        self.config = config
        self.vocab_size = vocab_size
        self.num_classes = num_classes
        self.per_timestep_head = per_timestep_head
        #: Sequence-final heads read the mean of the last ``head_pool``
        #: hidden vectors (temporal mean pooling, standard in sequence
        #: classifiers); 1 reproduces plain last-state readout.
        self.head_pool = head_pool

    @property
    def num_layers(self) -> int:
        """Number of stacked LSTM layers."""
        return len(self.layers)

    def parameters(self) -> list[np.ndarray]:
        """Every weight array, in a fixed order: the embedding, then per
        layer ``W_{f,i,c,o}``, ``U_{f,i,c,o}``, ``b_{f,i,c,o}`` (views of
        the united blocks, so an in-place edit updates the weights every
        executor runs on), then the head weight and bias."""
        cells = [array for layer in self.layers for array in layer.weights.gate_arrays()]
        return [self.embedding, *cells, self.head_weight, self.head_bias]

    def check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        """Token ids as an array, rejecting anything ``embedding[tokens]``
        would misread: a negative id wraps to the last rows, a boolean
        array indexes as a mask, and a float or an id past the vocabulary
        raises a bare ``IndexError`` from deep inside a run."""
        tokens = np.asarray(tokens)
        if tokens.dtype.kind not in "iu":
            raise ShapeError(
                f"token id out of vocabulary range (non-integer dtype {tokens.dtype})"
            )
        if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= self.vocab_size:
            raise ShapeError("token id out of vocabulary range")
        return tokens

    def embed(self, tokens: np.ndarray) -> np.ndarray:
        """Look up token embeddings; returns ``(T, E)``."""
        tokens = self.check_tokens(tokens)
        if tokens.ndim != 1:
            raise ShapeError(f"tokens must be 1-D, got shape {tokens.shape}")
        return self.embedding[tokens]

    def head_logits(self, hidden: np.ndarray) -> np.ndarray:
        """Apply the linear head to ``(H,)`` or ``(T, H)`` hidden vectors."""
        return hidden @ self.head_weight.T + self.head_bias

    def pool_top(self, top: np.ndarray) -> np.ndarray:
        """Readout vector(s) for a sequence-final head.

        Args:
            top: Top-layer hidden sequence, ``(T, H)`` or ``(B, T, H)``.
        Returns:
            ``(H,)`` / ``(B, H)``: the mean of the last ``head_pool`` steps.
        """
        return top[..., -self.head_pool:, :].mean(axis=-2)
