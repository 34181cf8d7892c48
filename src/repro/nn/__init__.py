"""Neural-network substrate: a from-scratch numpy LSTM stack.

This subpackage provides everything the paper's PyTorch side provided —
cell math (Eq. 1-5), unrolled layers, multi-layer networks with embedding and
task heads, the zero-pruning baseline, post-training weight quantization,
and a calibrated model zoo standing in for pre-trained checkpoints. It is
inference only: the zoo's weights are drawn and calibrated, never trained.
"""

from repro.nn.activations import (
    SENSITIVE_HI,
    SENSITIVE_LO,
    SENSITIVE_WIDTH,
    hard_sigmoid,
    sensitive_overlap,
    sigmoid,
    tanh,
)
from repro.nn.initializers import WeightInitializer
from repro.nn.lstm_cell import CellState, GateVectors, LSTMCellWeights, lstm_cell_step
from repro.nn.lstm_layer import LSTMLayer
from repro.nn.network import LSTMNetwork
from repro.nn.pruning import ZeroPruningResult, zero_prune
from repro.nn.model_zoo import CalibrationProfile, build_calibrated_network

__all__ = [
    "SENSITIVE_HI",
    "SENSITIVE_LO",
    "SENSITIVE_WIDTH",
    "CalibrationProfile",
    "CellState",
    "GateVectors",
    "LSTMCellWeights",
    "LSTMLayer",
    "LSTMNetwork",
    "WeightInitializer",
    "ZeroPruningResult",
    "build_calibrated_network",
    "hard_sigmoid",
    "lstm_cell_step",
    "sensitive_overlap",
    "sigmoid",
    "tanh",
    "zero_prune",
]
