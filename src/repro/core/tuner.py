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

from dataclasses import dataclass

import numpy as np

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

#: Quantile grid searched for the alpha_inter upper limit.
_ALPHA_QUANTILES = np.linspace(0.02, 0.98, 33)
#: The alpha_inter search accepts a mean tissue count within this factor
#: of ``N_min``.
_N_MIN_TOLERANCE = 1.05

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
    0`` and at every breakpoint
    (:func:`~repro.core.breakpoints.find_breakpoints`: ``S[t] < alpha``
    for ``t >= 1``, none at ``alpha = 0``), so each cell's distance from
    the last start before it gives the longest run.
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


def find_alpha_inter_max(relevance_samples: list[np.ndarray], mts: int) -> float:
    """Fig. 10, step 2: the smallest threshold reaching ``N_min`` tissues.

    Args:
        relevance_samples: Per-(sequence, layer) relevance arrays ``S``.
        mts: The calibrated maximum tissue size.

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
        if count <= n_min * _N_MIN_TOLERANCE:
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
