"""The paper's contribution: inter-cell and intra-cell LSTM optimizations.

* :mod:`repro.core.relevance` — Algorithm 2, the relevance value ``S``.
* :mod:`repro.core.breakpoints` — weak-link search and layer division.
* :mod:`repro.core.context_prediction` — Eq. 6, the predicted context link.
* :mod:`repro.core.tissue` — tissue formation, alignment, MTS calibration.
* :mod:`repro.core.plan` / :mod:`repro.core.planner` — per-sequence plans.
* :mod:`repro.core.executor` — numerically exact execution of every mode.
* :mod:`repro.core.trace_builder` — plan -> GPU kernel trace.
* :mod:`repro.core.thresholds` — the accuracy/performance knob
  (threshold sets, AO/BPA/UO schemes).
* :mod:`repro.core.tuner` — the offline operations that calibrate it
  (Fig. 10: MTS, the ``alpha_inter`` ceiling, the predicted links).
* :mod:`repro.core.pipeline` — the top-level :class:`OptimizedLSTM` API.
"""

from repro.core.relevance import relevance_values, exact_relevance_values
from repro.core.breakpoints import find_breakpoints, divide_layer, SubLayer
from repro.core.context_prediction import ContextLinkPredictor, PredictedLink
from repro.core.tissue import Tissue, align_tissues, form_tissues, calibrate_mts
from repro.core.plan import LayerPlanRecord, SequencePlan
from repro.core.executor import ExecutionConfig, ExecutionMode, ExecutionResult, LSTMExecutor
from repro.core.trace_builder import build_kernel_trace
from repro.core.thresholds import ThresholdSchedule, ThresholdSet
from repro.core.tuner import OfflineCalibration, calibrate_offline
from repro.core.pipeline import OptimizedLSTM, InferenceOutcome

__all__ = [
    "ContextLinkPredictor",
    "ExecutionConfig",
    "ExecutionMode",
    "ExecutionResult",
    "InferenceOutcome",
    "LSTMExecutor",
    "LayerPlanRecord",
    "OfflineCalibration",
    "OptimizedLSTM",
    "PredictedLink",
    "SequencePlan",
    "SubLayer",
    "ThresholdSchedule",
    "ThresholdSet",
    "Tissue",
    "align_tissues",
    "build_kernel_trace",
    "calibrate_mts",
    "calibrate_offline",
    "divide_layer",
    "exact_relevance_values",
    "find_breakpoints",
    "form_tissues",
    "relevance_values",
]
