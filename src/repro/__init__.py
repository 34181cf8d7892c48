"""repro — a full reproduction of *Towards Memory Friendly Long-Short Term
Memory Networks (LSTMs) on Mobile GPUs* (MICRO 2018).

The package provides:

* a from-scratch numpy LSTM stack for inference (:mod:`repro.nn`),
* an analytical mobile-GPU timing and energy simulator (:mod:`repro.gpu`),
* the paper's inter-cell (layer division / tissues) and intra-cell (dynamic
  row skip) optimizations (:mod:`repro.core`),
* the six Table II NLP applications with synthetic datasets and the user
  study (:mod:`repro.workloads`),
* the benchmark harness regenerating every evaluation table and figure
  (:mod:`repro.bench`).

Quickstart::

    from repro import OptimizedLSTM, ExecutionMode

    app = OptimizedLSTM.from_app("BABI")
    app.calibrate()
    tokens = app.sample_tokens(8, seed=1)
    base = app.run(tokens, mode=ExecutionMode.BASELINE)
    fast = app.run(tokens, mode=ExecutionMode.COMBINED, threshold_index=4)
    print(f"{fast.speedup_vs(base):.2f}x at "
          f"{fast.agreement_with(base):.1%} agreement")
"""

from repro.config import (
    APP_NAMES,
    AppConfig,
    LSTMConfig,
    TABLE2_APPS,
    TaskFamily,
    USER_IMPERCEPTIBLE_ACCURACY,
    get_app,
)
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.pipeline import InferenceOutcome, OptimizedLSTM
from repro.core.plan import PlanCache, PlanCacheStats
from repro.core.thresholds import ThresholdSchedule, ThresholdSet
from repro.core.tuner import OfflineCalibration, calibrate_offline
from repro.gpu.simulator import TimingSimulator
from repro.gpu.specs import GPUSpec, TEGRA_X1, TESLA_M40
from repro.nn.model_zoo import build_calibrated_network
from repro.nn.network import LSTMNetwork
from repro.obs import Recorder, RunRecord

__version__ = "1.0.0"

__all__ = [
    "APP_NAMES",
    "AppConfig",
    "ExecutionConfig",
    "ExecutionMode",
    "GPUSpec",
    "InferenceOutcome",
    "LSTMConfig",
    "LSTMExecutor",
    "LSTMNetwork",
    "OfflineCalibration",
    "OptimizedLSTM",
    "PlanCache",
    "PlanCacheStats",
    "Recorder",
    "RunRecord",
    "TABLE2_APPS",
    "TEGRA_X1",
    "TESLA_M40",
    "TaskFamily",
    "ThresholdSchedule",
    "ThresholdSet",
    "TimingSimulator",
    "USER_IMPERCEPTIBLE_ACCURACY",
    "__version__",
    "build_calibrated_network",
    "calibrate_offline",
    "get_app",
]
