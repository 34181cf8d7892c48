"""The six evaluated applications, wired end to end.

A :class:`Workload` bundles a calibrated :class:`~repro.core.pipeline.
OptimizedLSTM`, its confidence-labelled :class:`~repro.workloads.datasets.
SyntheticDataset`, and the baseline outcome, and exposes the measurements
the paper's figures are built from: per-scheme accuracy, speedup, and
energy saving, plus the full threshold sweep of Fig. 19.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import APP_NAMES, get_app
from repro.core.executor import ExecutionMode
from repro.core.pipeline import InferenceOutcome, OptimizedLSTM
from repro.core.plan import PlanCache
from repro.core.thresholds import select_ao, select_bpa
from repro.errors import ConfigurationError
from repro.gpu.specs import GPUSpec, TEGRA_X1
from repro.workloads.datasets import DEFAULT_CONFIDENCE_KEEP, SyntheticDataset, build_dataset

#: Evaluation batch sizes per application. Per-timestep apps (PTB, MT) get
#: fewer sequences because every token is an evaluation unit.
DEFAULT_EVAL_SEQUENCES: dict[str, int] = {
    "IMDB": 32,
    "MR": 96,
    "BABI": 64,
    "SNLI": 36,
    "PTB": 6,
    "MT": 12,
}

#: Confident-decision share per application. Many-class tasks keep a
#: smaller share: a random teacher's margins tighten as the class count
#: grows, whereas a trained model on separable data stays decisive — the
#: keep fraction restores that decisiveness (see workloads.metrics).
DEFAULT_CONFIDENCE_KEEP_PER_APP: dict[str, float] = {
    "IMDB": 0.70,
    "MR": 0.80,
    "BABI": 0.35,
    "SNLI": 0.85,
    "PTB": 0.35,
    "MT": 0.35,
}


@dataclass
class WorkloadEvaluation:
    """One scheme's measured (accuracy, speedup, energy) on one workload."""

    app_name: str
    mode: ExecutionMode
    threshold_index: int | None
    alpha_inter: float
    alpha_intra: float
    accuracy: float
    speedup: float
    energy_saving: float
    mean_tissue_size: float
    mean_skip_fraction: float
    mean_breakpoints: float
    mean_time: float
    mean_energy: float
    #: The execution measured, logits dropped (config, plans, prices), so a
    #: figure can re-price it (:meth:`OptimizedLSTM.price`) without a rerun.
    outcome: InferenceOutcome | None = field(default=None, repr=False, compare=False)


class Workload:
    """A calibrated application plus its evaluation dataset."""

    def __init__(self, app: OptimizedLSTM, dataset: SyntheticDataset, name: str) -> None:
        if app.calibration is None:
            raise ConfigurationError("workload requires a calibrated OptimizedLSTM")
        self.app = app
        self.dataset = dataset
        self.name = name
        self._baseline: InferenceOutcome | None = None

    @property
    def baseline(self) -> InferenceOutcome:
        """The exact execution of the evaluation batch (cached)."""
        if self._baseline is None:
            self._baseline = self.app.run(
                self.dataset.tokens, mode=ExecutionMode.BASELINE
            )
        return self._baseline

    def _as_evaluation(
        self, outcome: InferenceOutcome, threshold_index: int | None
    ) -> WorkloadEvaluation:
        """One evaluation of ``outcome`` against the baseline, with the
        mode and thresholds its execution resolved."""
        base = self.baseline
        config = outcome.config
        return WorkloadEvaluation(
            app_name=self.name,
            mode=config.mode,
            threshold_index=threshold_index,
            alpha_inter=config.alpha_inter,
            alpha_intra=config.alpha_intra,
            accuracy=self.dataset.accuracy(outcome.predictions),
            speedup=outcome.speedup_vs(base),
            energy_saving=outcome.energy_saving_vs(base),
            mean_tissue_size=outcome.mean_tissue_size,
            mean_skip_fraction=outcome.mean_skip_fraction,
            mean_breakpoints=outcome.mean_breakpoints,
            mean_time=outcome.mean_time,
            mean_energy=outcome.mean_energy,
            outcome=replace(outcome, logits=None),
        )

    def evaluate(
        self,
        mode: ExecutionMode,
        threshold_index: int | None = None,
        alpha_inter: float | None = None,
        alpha_intra: float | None = None,
    ) -> WorkloadEvaluation:
        """Measure one scheme on the evaluation batch.

        Threshold set 0 *is* the baseline case (the paper's convention for
        Fig. 19), so it is reported as exactly 1.0x / 100 %.
        """
        if mode is ExecutionMode.BASELINE or threshold_index == 0:
            return self._as_evaluation(self.baseline, 0)
        outcome = self.app.run(
            self.dataset.tokens,
            mode=mode,
            threshold_index=threshold_index,
            alpha_inter=alpha_inter,
            alpha_intra=alpha_intra,
        )
        return self._as_evaluation(outcome, threshold_index)

    def threshold_sweep(
        self,
        mode: ExecutionMode = ExecutionMode.COMBINED,
        indices: range | list[int] | None = None,
    ) -> list[WorkloadEvaluation]:
        """The Fig. 19 sweep: one evaluation per threshold set."""
        if indices is None:
            indices = range(len(self.app.calibration.schedule()))
        return [self.evaluate(mode, threshold_index=i) for i in indices]

    @staticmethod
    def ao_index(sweep: list[WorkloadEvaluation], target_accuracy: float = 0.98) -> int:
        """AO selection over a sweep (most aggressive set within budget)."""
        return select_ao(np.array([e.accuracy for e in sweep]), target_accuracy)

    @staticmethod
    def bpa_index(sweep: list[WorkloadEvaluation]) -> int:
        """BPA selection over a sweep (max speedup x accuracy)."""
        return select_bpa(
            np.array([e.accuracy for e in sweep]),
            np.array([e.speedup for e in sweep]),
        )


def build_workload(
    name: str,
    seed: int = 0,
    num_sequences: int | None = None,
    spec: GPUSpec = TEGRA_X1,
    calibration_sequences: int = 8,
    confidence_keep: float | None = None,
    mts: int | None = None,
    plan_cache: PlanCache | None = None,
) -> Workload:
    """Build, calibrate, and label one Table II application end to end."""
    app_config = get_app(name)
    app = OptimizedLSTM.from_app(app_config, seed=seed, spec=spec, plan_cache=plan_cache)
    app.calibrate(num_sequences=calibration_sequences, mts=mts)
    if num_sequences is None:
        num_sequences = DEFAULT_EVAL_SEQUENCES[app_config.name]
    if confidence_keep is None:
        confidence_keep = DEFAULT_CONFIDENCE_KEEP_PER_APP.get(
            app_config.name, DEFAULT_CONFIDENCE_KEEP
        )
    dataset = build_dataset(
        app, num_sequences, seed=seed + 1, confidence_keep=confidence_keep
    )
    return Workload(app, dataset, app_config.name)


def build_scaled_workload(
    name: str,
    hidden_size: int | None = None,
    seq_length: int | None = None,
    seed: int = 0,
    num_sequences: int | None = None,
    spec: GPUSpec = TEGRA_X1,
    calibration_sequences: int = 6,
    plan_cache: PlanCache | None = None,
) -> Workload:
    """A Table II application with altered model capacity (Fig. 17 sweeps).

    Keeps the application's task family, vocabulary, head, and calibration
    profile, but scales the hidden size and/or unrolled length.
    """
    import dataclasses

    from repro.core.pipeline import OptimizedLSTM as _OptimizedLSTM

    base = get_app(name)
    scaled = dataclasses.replace(
        base, model=base.model.scaled(hidden_size=hidden_size, seq_length=seq_length)
    )
    app = _OptimizedLSTM.from_app(scaled, seed=seed, spec=spec, plan_cache=plan_cache)
    app.calibrate(num_sequences=calibration_sequences)
    if num_sequences is None:
        num_sequences = max(12, DEFAULT_EVAL_SEQUENCES[base.name] // 2)
    keep = DEFAULT_CONFIDENCE_KEEP_PER_APP.get(base.name, DEFAULT_CONFIDENCE_KEEP)
    dataset = build_dataset(app, num_sequences, seed=seed + 1, confidence_keep=keep)
    label = f"{base.name}-H{scaled.model.hidden_size}-L{scaled.model.seq_length}"
    return Workload(app, dataset, label)


def all_app_names() -> tuple[str, ...]:
    """The Table II application names in paper order."""
    return APP_NAMES
