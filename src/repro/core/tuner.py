"""Offline operations of the inter/intra framework (Fig. 10, steps 1-4).

Given a network, a calibration token batch and a GPU spec, the tuner:

1. **Determines the MTS** by sweeping the tissue size on the GPU model
   (:func:`repro.core.tissue.calibrate_mts`).
2. **Finds the upper limit of** ``alpha_inter`` — the smallest relevance
   threshold that already drives the tissue count down to the minimum
   ``N_min = ceil(N_origin / MTS)`` (Eq. 7); pushing the threshold past
   this point only costs accuracy without saving further weight loads.
3. **Fits the predicted context links** (Eq. 6) from the distribution of
   links observed in an exact calibration run.
4. **Adjusts thresholds to the user-preferred accuracy** — the AO
   selection :func:`repro.core.thresholds.select_ao` over a measured
   accuracy curve.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.breakpoints import find_breakpoints
from repro.core.context_prediction import ContextLinkPredictor, PredictedLink
from repro.core.executor import (
    ExecutionConfig,
    ExecutionMode,
    ExecutionResult,
    LSTMExecutor,
)
from repro.core.thresholds import ThresholdSchedule
from repro.core.tissue import calibrate_mts
from repro.errors import CalibrationError
from repro.gpu.specs import GPUSpec, TEGRA_X1
from repro.nn.network import LSTMNetwork
from repro.nn.quantize import PRECISIONS, Precision

if TYPE_CHECKING:
    from repro.core.pipeline import OptimizedLSTM

#: Quantile grid searched for the alpha_inter upper limit.
_ALPHA_QUANTILES = np.linspace(0.02, 0.98, 33)

#: Largest meaningful near-zero threshold for the output gate: at 0.5 the
#: sigmoid midpoint itself would count as "near zero".
DEFAULT_ALPHA_INTRA_MAX: float = 0.5


@dataclass
class OfflineCalibration:
    """Everything the runtime needs, produced once per application."""

    mts: int
    alpha_inter_max: float
    alpha_intra_max: float
    predicted_links: list[PredictedLink]
    relevance_samples: list[np.ndarray]

    def schedule(self, count: int = 11) -> ThresholdSchedule:
        """The Fig. 19 threshold schedule for this application.

        ``alpha_intra`` steps linearly from 0 to its maximum;
        ``alpha_inter`` steps through relevance-*quantile* space so that set
        ``i`` breaks roughly ``i / (count - 1)`` of the links broken at the
        upper limit (see :meth:`ThresholdSchedule.from_values`).
        """
        pooled = np.sort(np.concatenate(self.relevance_samples))
        q_max = float(np.mean(pooled < self.alpha_inter_max))
        inter_values = [0.0]
        for i in range(1, count):
            if i == count - 1:
                inter_values.append(self.alpha_inter_max)
            else:
                # Quadratic spacing: the first sets should pick only the
                # clearly weak links (the low tail of S), leaving fine
                # resolution where the accuracy budget binds.
                q = q_max * (i / (count - 1)) ** 2
                inter_values.append(min(float(np.quantile(pooled, q)), self.alpha_inter_max))
        # Quadratic spacing for alpha_intra: the near-zero mass of trained
        # output gates sits at o ~ 0.01, so the interesting low end of the
        # threshold needs finer steps than the top.
        intra_values = [
            self.alpha_intra_max * (i / (count - 1)) ** 2 for i in range(count)
        ]
        return ThresholdSchedule.from_values(inter_values, intra_values)


def _mean_tissue_counts(
    relevance_samples: list[np.ndarray], alphas: np.ndarray, mts: int
) -> np.ndarray:
    """Average tissues per layer at each threshold of ``alphas`` (plan-only,
    no numerics).

    Tissue alignment (:func:`~repro.core.tissue.align_tissues`) schedules
    unit-time chains by the LPT rule, which is optimal for chains (Hu
    1961): a layer of ``T`` cells takes as many tissues as its longest
    sub-layer, or ``ceil(T / mts)`` if more. A sub-layer starts at ``t =
    0`` and at every breakpoint (:func:`find_breakpoints`: ``S[t] <
    alpha`` for ``t >= 1``, none at ``alpha = 0``), so each cell's
    distance from the last start before it gives the longest run.
    """
    alphas = np.asarray(alphas, dtype=np.float64)[:, None]
    counts = np.empty((len(relevance_samples), alphas.shape[0]))
    for n, s in enumerate(relevance_samples):
        steps = np.arange(s.shape[0])
        starts = np.zeros((alphas.shape[0], steps.size), dtype=np.intp)
        breaks = (s[1:] < alphas) & (alphas != 0.0)
        np.multiply(breaks, steps[1:], out=starts[:, 1:])
        np.maximum.accumulate(starts, axis=1, out=starts)
        longest = (steps - starts).max(axis=1) + 1
        counts[n] = np.maximum(longest, -(-steps.size // mts))
    return counts.mean(axis=0)


def find_alpha_inter_max(
    relevance_samples: list[np.ndarray], mts: int, tolerance: float = 1.05
) -> float:
    """Fig. 10, step 2: the smallest threshold reaching ``N_min`` tissues.

    Args:
        relevance_samples: Per-(sequence, layer) relevance arrays ``S``.
        mts: The calibrated maximum tissue size.
        tolerance: Accept a tissue count within this factor of ``N_min``.

    Returns:
        The chosen ``alpha_inter`` upper limit. If even breaking every link
        cannot reach ``N_min`` (short layers), returns the threshold with
        the lowest achievable count.
    """
    if not relevance_samples:
        raise CalibrationError("no relevance samples supplied")
    n_min = float(np.mean([-(-s.shape[0] // mts) for s in relevance_samples]))
    pooled = np.concatenate(relevance_samples)
    candidates = np.unique(np.quantile(pooled, _ALPHA_QUANTILES))
    best_alpha = float(candidates[-1]) * 1.001
    best_count, *counts = _mean_tissue_counts(
        relevance_samples, np.append(best_alpha, candidates), mts
    )
    for alpha, count in zip(candidates, counts):
        if count <= n_min * tolerance:
            return float(alpha)
        if count < best_count:
            best_count = count
            best_alpha = float(alpha)
    return best_alpha


def _relevance_probe(
    network: LSTMNetwork, tokens: np.ndarray, collect_states: bool = False
) -> ExecutionResult:
    """An INTER run at an epsilon threshold: every layer's relevance is
    computed and recorded, and no link breaks unless its relevance is
    exactly zero."""
    probe = LSTMExecutor(
        network,
        ExecutionConfig(mode=ExecutionMode.INTER, alpha_inter=1e-300),
    )
    return probe.run_batch(np.asarray(tokens), collect_states=collect_states)


def _relevance_samples(result: ExecutionResult) -> list[np.ndarray]:
    samples = [
        record.relevance
        for plan in result.plans
        for record in plan.layers
        if record.relevance is not None
    ]
    if not samples:
        raise CalibrationError("calibration run produced no relevance samples")
    return samples


def _fit_links(result: ExecutionResult) -> list[PredictedLink]:
    links = []
    for hs, cs in zip(result.layer_outputs, result.layer_states):
        predictor = ContextLinkPredictor(hs.shape[-1])
        for b in range(hs.shape[0]):
            predictor.observe(hs[b], cs[b])
        links.append(predictor.fit())
    return links


def _exact_run(network: LSTMNetwork, tokens: np.ndarray) -> ExecutionResult:
    baseline = LSTMExecutor(network, ExecutionConfig(mode=ExecutionMode.BASELINE))
    return baseline.run_batch(np.asarray(tokens), collect_states=True)


def collect_relevance_samples(network: LSTMNetwork, tokens: np.ndarray) -> list[np.ndarray]:
    """Relevance arrays ``S`` for every (sequence, layer) of a calibration
    batch, computed with an epsilon threshold (no links actually break)."""
    return _relevance_samples(_relevance_probe(network, tokens))


def fit_predicted_links(network: LSTMNetwork, tokens: np.ndarray) -> list[PredictedLink]:
    """Fig. 10, step 4: Eq. 6 link predictors from an exact calibration run."""
    return _fit_links(_exact_run(network, tokens))


def calibrate_offline(
    network: LSTMNetwork,
    tokens: np.ndarray,
    spec: GPUSpec = TEGRA_X1,
    mts: int | None = None,
    alpha_intra_max: float = DEFAULT_ALPHA_INTRA_MAX,
) -> OfflineCalibration:
    """Run all offline operations (Fig. 10, steps 1-4) for one application.

    One forward pass serves steps 2 and 4: with no link broken, the
    relevance probe walks the exact recurrence, so its hidden and cell
    states *are* the exact calibration run's.
    """
    hidden = network.config.hidden_size
    if mts is None:
        # The MTS is a property of the GPU and the layer width, not of any
        # particular sequence: probe with a fixed, amortization-friendly
        # length so short applications do not bias the knee (Fig. 10 (1)).
        mts = calibrate_mts(spec, hidden)
    result = _relevance_probe(network, tokens, collect_states=True)
    relevance_samples = _relevance_samples(result)
    alpha_max = find_alpha_inter_max(relevance_samples, mts)
    if any(record.breakpoints for plan in result.plans for record in plan.layers):
        # A relevance of exactly zero broke a link even at the epsilon
        # threshold, so the probe was not the exact walk: run that.
        result = _exact_run(network, tokens)
    return OfflineCalibration(
        mts=mts,
        alpha_inter_max=alpha_max,
        alpha_intra_max=alpha_intra_max,
        predicted_links=_fit_links(result),
        relevance_samples=relevance_samples,
    )


@dataclass(frozen=True)
class CalibrationDrift:
    """How one calibration moved relative to another.

    Produced by :func:`compare_calibrations` for two calibrations of the
    *same application* (same batch, same GPU spec) taken before and after
    a weight update — e.g. a :func:`repro.nn.calibrate.fine_tune` run.
    Breakpoints are compared at the *before* calibration's
    ``alpha_inter_max`` so the threshold is held fixed and any movement is
    attributable to the weights alone.
    """

    alpha_inter_max_before: float
    alpha_inter_max_after: float
    breakpoints_before: tuple[tuple[int, ...], ...]
    breakpoints_after: tuple[tuple[int, ...], ...]
    relevance_mean_before: float
    relevance_mean_after: float

    @property
    def alpha_inter_max_delta(self) -> float:
        """Signed movement of the usable threshold ceiling."""
        return self.alpha_inter_max_after - self.alpha_inter_max_before

    @property
    def breakpoints_moved(self) -> int:
        """Placements that changed: symmetric-difference size summed over
        every (sequence, layer) relevance sample."""
        return sum(
            len(set(b) ^ set(a))
            for b, a in zip(self.breakpoints_before, self.breakpoints_after)
        )

    @property
    def shifted(self) -> bool:
        """Whether recalibration would produce a different plan."""
        return self.breakpoints_moved > 0 or self.alpha_inter_max_delta != 0.0


def _breakpoints_at(samples: Sequence[np.ndarray], alpha: float) -> tuple:
    """Per-sample breakpoint placements at a fixed relevance threshold."""
    return tuple(tuple(find_breakpoints(s, alpha)) for s in samples)


def compare_calibrations(
    before: OfflineCalibration, after: OfflineCalibration
) -> CalibrationDrift:
    """Diff two calibrations of the same application (see
    :class:`CalibrationDrift`); raises if the sample layouts differ."""
    if len(before.relevance_samples) != len(after.relevance_samples):
        raise CalibrationError(
            "calibrations are not comparable: "
            f"{len(before.relevance_samples)} vs {len(after.relevance_samples)} "
            "relevance samples (different batch or network depth)"
        )
    alpha = before.alpha_inter_max
    return CalibrationDrift(
        alpha_inter_max_before=before.alpha_inter_max,
        alpha_inter_max_after=after.alpha_inter_max,
        breakpoints_before=_breakpoints_at(before.relevance_samples, alpha),
        breakpoints_after=_breakpoints_at(after.relevance_samples, alpha),
        relevance_mean_before=float(
            np.mean([s.mean() for s in before.relevance_samples])
        ),
        relevance_mean_after=float(
            np.mean([s.mean() for s in after.relevance_samples])
        ),
    )


@dataclass(frozen=True)
class PrecisionSweepPoint:
    """One configuration of the joint (thresholds x precision) sweep.

    ``accuracy`` is agreement with the exact fp64 baseline on the same
    batch — the paper's Δ-accuracy metric, now charging quantization and
    skipping jointly. The byte counters come from the run's kernel trace,
    so ``traffic_reduction`` reflects skip x precision compounding.
    """

    threshold_index: int
    alpha_inter: float
    alpha_intra: float
    precision: str
    accuracy: float
    mean_time: float
    speedup: float
    weight_bytes_fp64: float
    weight_bytes_moved: float

    @property
    def traffic_reduction(self) -> float:
        """Weight-traffic reduction vs moving survivors at fp64."""
        if self.weight_bytes_moved <= 0.0:
            return 1.0
        return self.weight_bytes_fp64 / self.weight_bytes_moved


def sweep_precision_thresholds(
    app: "OptimizedLSTM",
    tokens: np.ndarray,
    mode: ExecutionMode = ExecutionMode.COMBINED,
    precisions: Iterable["Precision | str"] = PRECISIONS,
    threshold_indices: Iterable[int] | None = None,
    count: int = 11,
) -> list[PrecisionSweepPoint]:
    """Joint (``alpha_inter``, ``alpha_intra``, ``precision``) sweep.

    Extends the Fig. 19 threshold schedule with the precision axis: each
    threshold set of the calibrated schedule runs once per storage
    policy, and every point carries its accuracy delta vs the exact fp64
    baseline plus its measured weight-byte traffic. Feed the result to
    :func:`accuracy_guided_precision` for the step-3-style selection.

    Args:
        app: A calibrated :class:`~repro.core.pipeline.OptimizedLSTM`.
        tokens: Evaluation batch ``(B, T)``.
        mode: Scheme swept (INTER / INTRA / COMBINED).
        precisions: Storage policies to cross with the schedule.
        threshold_indices: Schedule sets to run; all ``count`` by default.
        count: Schedule length when ``threshold_indices`` is ``None``.
    """
    from repro.obs import Recorder

    baseline = app.run(tokens, mode=ExecutionMode.BASELINE)
    if threshold_indices is None:
        threshold_indices = range(count)
    indices = list(threshold_indices)
    points: list[PrecisionSweepPoint] = []
    for precision in precisions:
        tag = Precision.parse(precision).tag
        for index in indices:
            recorder = Recorder()
            outcome = app.run(
                tokens,
                mode=mode,
                threshold_index=index,
                precision=tag,
                recorder=recorder,
            )
            record = recorder.last()
            totals = record.weight_bytes_totals()
            points.append(
                PrecisionSweepPoint(
                    threshold_index=index,
                    alpha_inter=float(record.config["alpha_inter"]),
                    alpha_intra=float(record.config["alpha_intra"]),
                    precision=tag,
                    accuracy=outcome.agreement_with(baseline),
                    mean_time=outcome.mean_time,
                    speedup=outcome.speedup_vs(baseline),
                    weight_bytes_fp64=totals["fp64"],
                    weight_bytes_moved=totals["moved"],
                )
            )
    return points


@dataclass(frozen=True)
class FrontierPoint:
    """One Pareto-optimal operating point of the joint sweep.

    The online UO control loop (:mod:`repro.runtime.controller`) walks a
    list of these, ordered most-accurate first, stepping toward the fast
    end under latency pressure and back under accuracy pressure.
    """

    alpha_inter: float
    alpha_intra: float
    precision: str
    accuracy: float
    mean_time: float
    weight_bytes_moved: float
    threshold_index: int

    def as_dict(self) -> dict:
        """JSON form (bench reports embed it)."""
        return {
            "alpha_inter": self.alpha_inter,
            "alpha_intra": self.alpha_intra,
            "precision": self.precision,
            "accuracy": self.accuracy,
            "mean_time": self.mean_time,
            "weight_bytes_moved": self.weight_bytes_moved,
            "threshold_index": self.threshold_index,
        }


def export_frontier(points: Sequence[PrecisionSweepPoint]) -> list[FrontierPoint]:
    """Pareto frontier of a joint sweep, ordered most-accurate first.

    A point survives only if no other point is at least as accurate *and*
    strictly faster — the dominated interior of the (accuracy, latency)
    cloud is useless to a controller, which needs every step along the
    list to actually trade accuracy for speed. Ties in both coordinates
    keep the first occurrence. The result is strictly decreasing in
    accuracy and strictly decreasing in ``mean_time``, so index ``i + 1``
    is always faster and never more accurate than index ``i``.
    """
    if not points:
        raise CalibrationError("cannot export a frontier from an empty sweep")
    ordered = sorted(points, key=lambda p: (-p.accuracy, p.mean_time))
    frontier: list[FrontierPoint] = []
    best_time = float("inf")
    for point in ordered:
        if point.mean_time >= best_time:
            continue  # dominated: something at least as accurate is faster
        best_time = point.mean_time
        frontier.append(
            FrontierPoint(
                alpha_inter=point.alpha_inter,
                alpha_intra=point.alpha_intra,
                precision=point.precision,
                accuracy=point.accuracy,
                mean_time=point.mean_time,
                weight_bytes_moved=point.weight_bytes_moved,
                threshold_index=point.threshold_index,
            )
        )
    return frontier


def accuracy_guided_precision(
    points: Sequence[PrecisionSweepPoint], target_accuracy: float
) -> PrecisionSweepPoint:
    """Pick the cheapest sweep point still meeting the accuracy target.

    Mirrors :func:`~repro.core.thresholds.select_ao` on the joint grid:
    among the points whose agreement with the fp64 baseline meets
    ``target_accuracy``, choose the one that moves the fewest weight
    bytes (precision and skipping compound in that metric). If no point
    qualifies, fall back to the most accurate one.
    """
    if not points:
        raise CalibrationError("precision sweep produced no points")
    eligible = [p for p in points if p.accuracy >= target_accuracy]
    if not eligible:
        return max(points, key=lambda p: (p.accuracy, p.traffic_reduction))
    return min(eligible, key=lambda p: (p.weight_bytes_moved, -p.accuracy))
