"""Neural-network substrate: a from-scratch numpy LSTM stack.

This subpackage provides everything the paper's PyTorch side provided —
cell math (Eq. 1-5), unrolled layers, multi-layer networks with embedding and
task heads, the zero-pruning baseline, and a calibrated model zoo standing in
for pre-trained checkpoints — plus truncated BPTT whose forward is the exact
executor's run (:mod:`repro.nn.backprop`) and the fine-tuning loop on top of
it (:mod:`repro.nn.calibrate`).
"""

from repro.nn.activations import (
    SENSITIVE_HI,
    SENSITIVE_LO,
    SENSITIVE_WIDTH,
    dsigmoid,
    dtanh,
    hard_sigmoid,
    sensitive_overlap,
    sigmoid,
    tanh,
)
from repro.nn.backprop import (
    Gradients,
    TrainingTape,
    analytic_saved_bytes,
    backward,
    measure_training_memory,
    softmax_cross_entropy,
    training_forward,
    training_step,
)
from repro.nn.calibrate import (
    Adam,
    DriftReport,
    DriftSpec,
    FineTuneResult,
    SGD,
    drift_network,
    drift_report,
    fine_tune,
    measure_gate_statistics,
    synthetic_drift_batch,
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
    "Adam",
    "CalibrationProfile",
    "CellState",
    "DriftReport",
    "DriftSpec",
    "FineTuneResult",
    "GateVectors",
    "Gradients",
    "LSTMCellWeights",
    "LSTMLayer",
    "LSTMNetwork",
    "SGD",
    "TrainingTape",
    "WeightInitializer",
    "ZeroPruningResult",
    "analytic_saved_bytes",
    "backward",
    "build_calibrated_network",
    "drift_network",
    "drift_report",
    "dsigmoid",
    "dtanh",
    "fine_tune",
    "hard_sigmoid",
    "lstm_cell_step",
    "measure_gate_statistics",
    "measure_training_memory",
    "sensitive_overlap",
    "sigmoid",
    "softmax_cross_entropy",
    "synthetic_drift_batch",
    "tanh",
    "training_forward",
    "training_step",
    "zero_prune",
]
