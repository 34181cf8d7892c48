"""Accuracy metrics for the agreement methodology.

The paper reports the accuracy *loss* of each approximation against the
exact execution. With synthetic teachers, the equivalent measurement is
agreement: the fraction of evaluation units (sequences for classification,
tokens for LM/MT) where the approximated network predicts the same class
as the exact network.

Real trained models are *confident* on the overwhelming majority of their
inputs; a randomly-initialized teacher is not — many of its "decisions" are
coin flips that any infinitesimal perturbation overturns. Counting those
flips as accuracy loss would make the metric measure tie-breaking noise
rather than approximation damage, so datasets restrict evaluation to the
confidently-decided units (see :func:`repro.workloads.datasets.build_dataset`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def prediction_margins(logits: np.ndarray) -> np.ndarray:
    """Top-1 minus top-2 logit per decision — the confidence proxy.

    Args:
        logits: ``(..., C)`` raw scores.

    Returns:
        Margins of shape ``logits.shape[:-1]``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape[-1] < 2:
        raise ConfigurationError("margins need at least two classes")
    top2 = np.partition(logits, -2, axis=-1)[..., -2:]
    return top2[..., 1] - top2[..., 0]


def agreement_accuracy(
    teacher: np.ndarray, predictions: np.ndarray, mask: np.ndarray | None = None
) -> float:
    """Fraction of (masked) units where ``predictions == teacher``."""
    teacher = np.asarray(teacher)
    predictions = np.asarray(predictions)
    if teacher.shape != predictions.shape:
        raise ConfigurationError(
            f"teacher shape {teacher.shape} != predictions shape {predictions.shape}"
        )
    matches = teacher == predictions
    if mask is None:
        return float(matches.mean())
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != teacher.shape:
        raise ConfigurationError(f"mask shape {mask.shape} != teacher shape {teacher.shape}")
    if not mask.any():
        raise ConfigurationError("evaluation mask selects no units")
    return float(matches[mask].mean())
